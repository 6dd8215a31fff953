"""Tests of the benchmark's reference scanner and of its self-check.

    python3 -m unittest discover -s perfbench -p "test_*.py"

The reference cases are worked by hand from the model's definitions; none
of them imports `hexscan`.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import reference as ref  # noqa: E402

AB = ("a", "b")
BOUND2 = ref.sizes_max_side(2)
# Rows of the size-(2,2,2) picture used below, cell by cell:
#   row 0: (0,0)=A (0,1)=B
#   row 1: (1,-1)=C (1,0)=D (1,1)=E
#   row 2: (2,-1)=F (2,0)=G
MARKED = ((2, 2, 2), (("A", "B"), ("C", "D", "E"), ("F", "G")))


class ReferenceGeometry(unittest.TestCase):
    def test_cells_and_lines_of_222(self):
        self.assertEqual(ref.cells((2, 2, 2)),
                         [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, -1), (2, 0)])
        self.assertEqual(ref.line_words(MARKED), [["C", "F"], ["A", "D", "G"], ["B", "E"]])

    def test_cell_counts(self):
        self.assertEqual(ref.cell_count((3, 3, 3)), 19)
        self.assertEqual(ref.cell_count((16, 16, 16)), 721)
        self.assertEqual(ref.cell_count((1, 2, 3)), 1 * 2 + 2 * 3 + 3 * 1 - 6 + 1)

    def test_190_pictures_at_max_side_2(self):
        pictures = list(ref.all_pictures(AB, BOUND2))
        self.assertEqual(len(pictures), 190)
        self.assertEqual(len(set(pictures)), 190)

    def test_line_family_images(self):
        self.assertEqual(ref.image("r0", MARKED),
                         ((2, 2, 2), (("G", "E"), ("F", "D", "B"), ("C", "A"))))
        self.assertEqual(ref.image("r3", MARKED),
                         ((2, 2, 2), (("A", "C"), ("B", "D", "F"), ("E", "G"))))
        self.assertEqual(ref.image("R3", MARKED),
                         ((2, 2, 2), (("G", "F"), ("E", "D", "C"), ("B", "A"))))
        tall = inputs.random_picture(random.Random(1), (1, 2, 3))
        for op in ref.LINE_FAMILY_OPS:
            self.assertEqual(ref.image(op, ref.image(op, tall)), tall)
        self.assertEqual(ref.image("r0", tall)[0], (2, 1, 3))
        self.assertEqual(ref.image("r3", ref.image("r0", tall)), ref.image("R3", tall))
        self.assertEqual(ref.compose_family("r0", "r3"), "R3")

    def test_boustrophedon_reads_odd_lines_reversed(self):
        self.assertEqual(ref.linearization(MARKED, ref.BOUSTROPHEDON),
                         [["C", "F"], ["G", "D", "A"], ["B", "E"]])
        self.assertEqual(ref.linearization(MARKED, ref.RETURNING, "r3"),
                         [["B", "E"], ["A", "D", "G"], ["C", "F"]])

    def test_hxp_text(self):
        self.assertEqual(ref.serialize(MARKED),
                         "%HXP 1\nsize: 2 2 2\nrow: A B\nrow: C D E\nrow: F G\n")
        self.assertLess(ref.sort_key(((1, 1, 1), (("b",),))), ref.sort_key(MARKED))


class ReferenceMachines(unittest.TestCase):
    def test_counts_of_live_machines_at_max_side_2(self):
        for kind in (ref.BOUSTROPHEDON, ref.RETURNING):
            for op in ref.LINE_FAMILY_OPS:
                everything = ref.language(inputs.all_pictures_machine(kind), AB, BOUND2, op)
                parity = ref.language(inputs.parity_machine(kind), AB, BOUND2, op)
                some_a = ref.language(inputs.some_symbol_machine(kind), AB, BOUND2, op)
                # Half the pictures of each size hold an even number of `a`;
                # one picture per size (all `b`) holds none.
                self.assertEqual((len(everything), len(parity), len(some_a)), (190, 95, 182))

    def test_parity_by_hand(self):
        parity = ref.Scanner(inputs.parity_machine())
        self.assertTrue(parity.accepts(((2, 2, 2), (("a", "a"), ("b", "b", "b"), ("b", "b")))))
        self.assertFalse(parity.accepts(((2, 2, 2), (("a", "b"), ("b", "b", "b"), ("b", "b")))))

    def test_criterion_12_witness_accepts_exactly_the_diagonal(self):
        witness, partner = inputs.fooling_witness(9)
        self.assertEqual(len(witness.forward) + len(witness.backward), 18)
        scanner = ref.Scanner(witness)
        triples = list(itertools.product(witness.forward, witness.backward, witness.backward))
        self.assertEqual(len(triples), 729)
        for t in triples:
            self.assertTrue(scanner.accepts(inputs.fooling_picture(partner, t, t)), t)
        for t, s in itertools.islice(itertools.permutations(triples, 2), 0, None, 97):
            self.assertFalse(scanner.accepts(inputs.fooling_picture(partner, t, s)), (t, s))

    def test_hxa_text_of_parity(self):
        text = ref.hxa_text(inputs.parity_machine(ref.RETURNING))
        self.assertEqual(text.splitlines()[:7], [
            "%HXA 1", "kind: GHRFA", "alphabet: a b", "forward-states: f0 f1",
            "backward-states:", "start: f0", "final: f0"])


class SelfCheck(unittest.TestCase):
    def test_one_operation_of_each_kind_passes_its_checks(self):
        here = os.path.dirname(os.path.abspath(__file__))
        done = subprocess.run([sys.executable, os.path.join(here, "run.py"), "--self-check"],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertNotIn("WRONG", done.stdout)


if __name__ == "__main__":
    unittest.main()
