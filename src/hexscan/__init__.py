"""Hexagonal picture languages, their symmetry group, and scanning automata."""

from .hexgrid import (
    BORDER_SYMBOL,
    Cell,
    ERASED_SYMBOL,
    FormatError,
    HexPicture,
    HexSize,
    ReservedSymbolError,
    cell_count,
    cells,
    make_uniform,
    parse_picture,
    render_ascii,
    row_widths,
    serialize_picture,
)
from .symmetry import (
    OP_NAMES,
    apply_op,
    compose,
    invert,
    normal_form,
    transform_size,
)
from .scan import (
    BOUSTROPHEDON,
    DirectionMode,
    RETURNING,
    ScanPlan,
    canonical_mode,
    modes_for_kind,
    parse_direction,
    scan_lines,
)
from .automata import (
    HexAutomaton,
    InvalidAutomatonError,
    RunTrace,
    automaton,
    determinize,
    parse_automaton,
    run,
    serialize_automaton,
    validate,
)
from .transforms import (
    family_normalizer,
    hbfa_to_hrfa,
    mirror_line_order,
    mirror_within_lines,
    point_reflection,
)
from .langtools import (
    SizeBound,
    accepted_set,
    bounded_equivalent,
    enumerate_pictures,
    equal_at_every_size,
    equivalent,
    exact_equivalent_for_size,
    image_set,
    picture_sort_key,
)

__version__ = "0.1.0"
