"""Hexagonal picture languages, their symmetry group, and scanning automata."""

from .hexgrid import (
    BORDER_SYMBOL,
    BorderedPicture,
    Cell,
    ERASED_SYMBOL,
    FormatError,
    HexPicture,
    HexSize,
    ReservedSymbolError,
    bordered,
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
    evaluate_word,
    invert,
    normal_form,
    transform_size,
)
from .scan import (
    ALL_MODES,
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
    is_deterministic,
    parse_automaton,
    run,
    run_canonical,
    serialize_automaton,
    validate,
)
from .transforms import (
    expected_output_states,
    family_normalizer,
    hbfa_to_hrfa,
    mirror_line_order,
    mirror_within_lines,
)
from .langtools import (
    LanguageSample,
    SizeBound,
    accepted_set,
    bounded_equivalent,
    enumerate_pictures,
    exact_equivalent_for_size,
    image_set,
    picture_sort_key,
)

__version__ = "0.1.0"
