import math
import random

import numpy as np
import pytest

from actsim import (
    ParameterError,
    apply_pmi,
    apply_ppmi,
    build_ac,
    build_aa,
    cosine_distance,
    extract_occurrences,
    log_from_label_traces,
    pairwise_distance_matrix,
    substitution_scores,
    write_distance_csv,
)
from reference import naive_similarity_matrix, two_copy_cosine
from synthetic_logs import random_small_log, structured_log
from test_matrices import FOUR_TRACE


def worked_log():
    return log_from_label_traces([list("abcde")] * 5 + [list("addbe")])


class TestCosineDistance:
    def test_worked_rows(self):
        # Rows c and d of the worked AC matrix share one context with count 5 vs 1.
        c = [0, 0, 5, 0, 0, 0, 0]
        d = [0, 0, 1, 5, 0, 1, 0]
        expected = 1 - 5 / (5 * math.sqrt(27))
        assert cosine_distance(c, d) == pytest.approx(expected, abs=1e-12)
        assert cosine_distance(c, d) == pytest.approx(0.80755, abs=1e-5)

    def test_identical_rows(self):
        assert cosine_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_conventions(self):
        assert cosine_distance([0, 0], [1, 2]) == 1.0
        assert cosine_distance([0, 0], [0, 0]) == 0.0

    def test_opposite_vectors(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            cosine_distance([1, 2], [1, 2, 3])

    def test_non_finite(self):
        with pytest.raises(ParameterError):
            cosine_distance([1, float("nan")], [1, 2])
        with pytest.raises(ParameterError):
            cosine_distance([1, float("inf")], [1, 2])

    def test_empty(self):
        with pytest.raises(ParameterError):
            cosine_distance([], [])


class TestPairwise:
    def test_matches_brute_force_on_counts(self):
        rng = random.Random(21)
        for _ in range(20):
            log = random_small_log(rng)
            table = extract_occurrences(log, rng.randint(2, 4), rng.choice(["mset", "seq"]))
            ac = build_ac(table)
            sim = pairwise_distance_matrix(ac)
            expected = np.array(naive_similarity_matrix(ac.dense().tolist()))
            assert np.allclose(sim.values, expected, atol=1e-12)

    def test_matches_brute_force_on_pmi(self):
        rng = random.Random(22)
        for _ in range(10):
            log = random_small_log(rng)
            table = extract_occurrences(log, 3, "mset")
            weighted = apply_pmi(build_ac(table), table)
            sim = pairwise_distance_matrix(weighted)
            expected = np.array(naive_similarity_matrix(weighted.dense().tolist()))
            assert np.allclose(sim.values, expected, atol=1e-12)

    def test_diagonal_and_symmetry(self):
        table = extract_occurrences(worked_log(), 3, "mset")
        sim = pairwise_distance_matrix(build_ac(table))
        assert np.array_equal(sim.values, sim.values.T)
        assert np.all(np.diag(sim.values) == 1.0)
        assert np.all(sim.values >= -1.0) and np.all(sim.values <= 1.0)

    def test_worked_cell(self):
        log = worked_log()
        sim = pairwise_distance_matrix(build_ac(extract_occurrences(log, 3, "mset")))
        c, d = log.alphabet.id_of("c"), log.alphabet.id_of("d")
        dist = sim.distance_matrix()[sim.index_of(c), sim.index_of(d)]
        assert dist == pytest.approx(1 - 5 / (5 * math.sqrt(27)), abs=1e-12)

    def test_row_scaling_invariance(self):
        from actsim import EmbeddingMatrix

        table = extract_occurrences(worked_log(), 3, "mset")
        ac = build_ac(table)
        scaled = EmbeddingMatrix(
            row_labels=ac.row_labels,
            column_labels=ac.column_labels,
            values=ac.dense() * np.array([1.0, 3.0, 0.5, 7.0, 2.0])[:, None],
            config=ac.config,
        )
        a = pairwise_distance_matrix(ac).values
        b = pairwise_distance_matrix(scaled).values
        assert np.allclose(a, b, atol=1e-12)

    def test_identical_rows_snap_to_distance_zero(self):
        from actsim import EmbeddingMatrix, MethodConfig, ContextKind

        values = np.array([[3, 7, 2], [3, 7, 2], [1, 0, 0]], dtype=np.int64)
        matrix = EmbeddingMatrix(
            row_labels=(1, 2, 3),
            column_labels=(1, 2, 3),
            values=values,
            config=MethodConfig("aa", ContextKind.SEQUENCE, "none", 3),
        )
        sim = pairwise_distance_matrix(matrix)
        assert sim.values[0, 1] == 1.0
        assert sim.distance_matrix()[0, 1] == 0.0


    @pytest.mark.parametrize("kind", ["mset", "seq"])
    @pytest.mark.parametrize("window", [3, 5])
    def test_one_float_copy_keeps_the_bits(self, kind, window):
        # The benchmark's W1 log: AC raw, PMI and PPMI (sparse) and AA (dense).
        table = extract_occurrences(structured_log(7, 2000, 20), window, kind)
        ac = build_ac(table)
        for matrix in (ac, apply_pmi(ac, table), apply_ppmi(ac, table), build_aa(table)):
            sims = pairwise_distance_matrix(matrix).values
            assert sims.tobytes() == two_copy_cosine(matrix.values).tobytes()

class TestSubstitution:
    def test_worked_values(self):
        log = worked_log()
        table = extract_occurrences(log, 3, "seq")
        ss = substitution_scores(table)
        d = log.alphabet.id_of("d")
        c = log.alphabet.id_of("c")
        a = log.alphabet.id_of("a")
        e = log.alphabet.id_of("e")
        # AA_seq(d,d)=14, #(d)=7, N=30 -> ln((14/30)/(7/30)^2) = ln(60/7).
        assert ss.similarity(d, d) == pytest.approx(math.log(60 / 7), abs=1e-12)
        assert ss.similarity(d, d) == pytest.approx(2.1484, abs=1e-3)
        # c's only sequence context <b,d> is shared with nobody, so the cell is empty.
        assert ss.similarity(c, d) == 0.0
        assert ss.similarity(a, e) == 0.0

    def test_four_trace_off_diagonal(self):
        log = log_from_label_traces(FOUR_TRACE)
        ss = substitution_scores(extract_occurrences(log, 3, "seq"))
        b, c = log.alphabet.id_of("b"), log.alphabet.id_of("c")
        # AA_seq(b,c)=2, #(b)=2, #(c)=3, N=19 -> ln(2*19/(2*2*3)).
        assert ss.similarity(b, c) == pytest.approx(math.log(2 * 19 / 12), abs=1e-12)

    def test_symmetric(self):
        ss = substitution_scores(extract_occurrences(worked_log(), 3, "seq"))
        assert np.array_equal(ss.values, ss.values.T)

    def test_multiset_table_rejected(self):
        with pytest.raises(ParameterError):
            substitution_scores(extract_occurrences(worked_log(), 3, "mset"))

    def test_no_distances_for_scores(self):
        ss = substitution_scores(extract_occurrences(worked_log(), 3, "seq"))
        with pytest.raises(ParameterError):
            ss.distance_matrix()

    def test_flavor_and_provenance(self):
        ss = substitution_scores(extract_occurrences(worked_log(), 3, "seq"))
        assert ss.flavor == "substitution"
        assert ss.config.method == "substitution"


class TestExport:
    def test_distance_csv_and_sidecar(self, tmp_path):
        log = worked_log()
        sim = pairwise_distance_matrix(build_ac(extract_occurrences(log, 3, "mset")))
        out = tmp_path / "distances.csv"
        write_distance_csv(sim, log.alphabet, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "activity,a,b,c,d,e"
        first = lines[1].split(",")
        assert first[0] == "a" and float(first[1]) == 0.0
        meta = (tmp_path / "distances.meta.json").read_text()
        assert '"flavor": "cosine"' in meta
        assert '"cells": "distance"' in meta

    def test_substitution_csv_writes_scores(self, tmp_path):
        log = worked_log()
        ss = substitution_scores(extract_occurrences(log, 3, "seq"))
        out = tmp_path / "scores.csv"
        write_distance_csv(ss, log.alphabet, out)
        d_row = out.read_text().splitlines()[4].split(",")
        assert d_row[0] == "d"
        assert float(d_row[4]) == pytest.approx(math.log(60 / 7), abs=1e-12)
        assert '"cells": "score"' in (tmp_path / "scores.meta.json").read_text()
