import numpy as np
import pytest

from reqtag import crf
from conftest import grad_check


def random_instance(rng, n):
    emissions = rng.normal(scale=2.0, size=(n, 3))
    transitions = crf.init_transitions()
    free = ~crf.forbidden_mask()
    transitions[free] = rng.normal(scale=1.5, size=free.sum())
    return emissions, transitions


class TestLogPartition:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            e, t = random_instance(rng, n)
            assert crf.crf_log_partition(e, t) == pytest.approx(
                crf.brute_force_log_partition(e, t), abs=1e-8)

    def test_uniform_single_step(self):
        e = np.zeros((1, 3))
        t = np.zeros((5, 5))
        assert crf.crf_log_partition(e, t) == pytest.approx(np.log(3), abs=1e-12)

    def test_monotone_in_emissions(self):
        rng = np.random.default_rng(4)
        e, t = random_instance(rng, 4)
        base = crf.crf_log_partition(e, t)
        e2 = e.copy()
        e2[2, 1] += 0.5
        assert crf.crf_log_partition(e2, t) > base

    def test_path_probabilities_sum_to_one(self):
        from itertools import product
        rng = np.random.default_rng(5)
        for n in (1, 3, 5):
            e, t = random_instance(rng, n)
            log_z = crf.crf_log_partition(e, t)
            total = sum(np.exp(crf.path_score(e, t, p) - log_z)
                        for p in product(range(3), repeat=n))
            assert total == pytest.approx(1.0, abs=1e-8)


class TestViterbi:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            e, t = random_instance(rng, n)
            path, score = crf.crf_viterbi(e, t)
            bpath, bscore = crf.brute_force_viterbi(e, t)
            assert score == pytest.approx(bscore, abs=1e-8)
            assert path == bpath

    def test_tie_break_prefers_lower_tag(self):
        # all-zero scores: every path ties; tie-break resolves backward
        # toward the lower index, so all-O must win
        e = np.zeros((3, 3))
        t = np.zeros((5, 5))
        path, _ = crf.crf_viterbi(e, t)
        assert path == [crf.O, crf.O, crf.O]
        assert path == crf.brute_force_viterbi(e, t)[0]

    def test_transition_scores_override_emissions(self):
        # emissions strongly prefer B at both positions ("GPS tracking"
        # as B B); a heavy B->B penalty must force B I instead
        e = np.array([[0.0, 5.0, 0.0],
                      [0.0, 5.0, 1.0]])
        t = crf.init_transitions()
        t[crf.B, crf.B] = -20.0
        path, _ = crf.crf_viterbi(e, t)
        assert path == [crf.B, crf.I]
        assert path == crf.brute_force_viterbi(e, t)[0]

    def test_never_emits_illegal_bio(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            e = rng.normal(scale=5.0, size=(n, 3))
            t = crf.init_transitions()
            free = ~crf.forbidden_mask()
            t[free] = rng.normal(scale=3.0, size=free.sum())
            path, _ = crf.crf_viterbi(e, t)
            assert crf.is_valid_bio(path)


class TestNll:
    def test_uniform_single_step(self):
        e = np.zeros((1, 3))
        t = np.zeros((5, 5))
        assert crf.crf_nll(e, t, [crf.B]) == pytest.approx(np.log(3), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            e, t = random_instance(rng, n)
            gold, _ = crf.crf_viterbi(e, t)
            assert crf.crf_nll(e, t, gold) >= -1e-8

    def test_peaked_emissions_drive_loss_to_zero(self):
        gold = [crf.O, crf.B, crf.I, crf.O]
        e = np.full((4, 3), -50.0)
        for i, y in enumerate(gold):
            e[i, y] = 50.0
        t = crf.init_transitions()
        assert crf.crf_nll(e, t, gold) < 1e-3

    def test_invalid_gold_rejected(self):
        e = np.zeros((2, 3))
        t = crf.init_transitions()
        with pytest.raises(ValueError):
            crf.crf_nll(e, t, [crf.O, crf.I])

    def test_gradients_pass_finite_differences(self):
        rng = np.random.default_rng(15)
        e, t = random_instance(rng, 4)
        gold = [crf.O, crf.B, crf.I, crf.O]
        _, d_e, d_t = crf.crf_nll_backward(e, t, gold)
        res = grad_check(lambda a: crf.crf_nll(a, t, gold), e, d_e,
                         h=1e-4, tol=1e-4)
        assert res.passed, res

        free = ~crf.forbidden_mask()
        max_err = 0.0
        for idx in zip(*np.nonzero(free)):
            orig = t[idx]
            t[idx] = orig + 1e-4
            lp = crf.crf_nll(e, t, gold)
            t[idx] = orig - 1e-4
            lm = crf.crf_nll(e, t, gold)
            t[idx] = orig
            fd = (lp - lm) / 2e-4
            max_err = max(max_err,
                          abs(fd - d_t[idx]) / max(abs(fd), abs(d_t[idx]), 1e-8))
        assert max_err < 1e-4

    def test_forbidden_transitions_get_zero_grad(self):
        rng = np.random.default_rng(16)
        e, t = random_instance(rng, 3)
        _, _, d_t = crf.crf_nll_backward(e, t, [crf.O, crf.B, crf.I])
        assert np.all(d_t[crf.forbidden_mask()] == 0.0)
