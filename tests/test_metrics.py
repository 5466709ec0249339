import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlmmsb import (
    ConnectivityStack,
    EmptyNetworkError,
    MembershipMatrix,
    ModelSelectionError,
    MultiLayerNetwork,
    RankDeficiencyError,
    UnusableDataError,
    classify_nodes,
    estimate_k,
    generate_connectivity,
    generate_membership,
    membership_errors,
    q_fmean,
    q_fsum,
    sample_mlmmsb,
    spdsos,
    top_k_eigen,
)
from mlmmsb import aggregate, estimators, metrics
from mlmmsb.aggregate import DENSE_EIG_LIMIT, Embedding
from mlmmsb.errors import EmptyLayerWarning
from mlmmsb.metrics import HIGHLY_MIXED, HIGHLY_PURE, NEUTRAL


def pure(labels, K):
    rows = np.zeros((len(labels), K))
    rows[np.arange(len(labels)), labels] = 1
    return MembershipMatrix(rows=rows)


def two_triangles():
    a = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        a[i, j] = a[j, i] = 1
    return MultiLayerNetwork(layers=a[None, :, :])


def newman_girvan(adj, labels):
    # independent direct implementation over hard communities
    degrees = adj.sum(axis=1)
    m = degrees.sum()
    q = 0.0
    for c in set(labels):
        members = [i for i, l in enumerate(labels) if l == c]
        e_c = adj[np.ix_(members, members)].sum() / m
        a_c = degrees[members].sum() / m
        q += e_c - a_c**2
    return q


class TestPermutationErrors:
    def test_exact_match_is_zero(self):
        pi = pure([0, 1, 2, 0], 3)
        report = membership_errors(pi, pi)
        assert report.hamming == 0
        assert report.relative == 0

    def test_column_swap_is_zero(self):
        pi = pure([0, 1, 0], 2)
        swapped = MembershipMatrix(rows=pi.rows[:, ::-1])
        report = membership_errors(swapped, pi)
        assert report.hamming == pytest.approx(0, abs=1e-15)
        assert report.relative == pytest.approx(0, abs=1e-15)

    def test_hand_example_k2(self):
        pi_true = MembershipMatrix(rows=np.eye(2))
        pi_hat = MembershipMatrix(rows=np.array([[0.8, 0.2], [0.0, 1.0]]))
        report = membership_errors(pi_hat, pi_true)
        assert report.hamming == pytest.approx(0.2)
        assert report.relative == pytest.approx(math.sqrt(0.08) / math.sqrt(2))
        assert report.best_permutation == (0, 1)

    def test_pure_case_is_twice_misclustered_fraction(self):
        pi_true = pure([0, 0, 1, 1], 2)
        pi_hat = pure([0, 1, 1, 1], 2)  # one of four nodes wrong
        assert membership_errors(pi_hat, pi_true).hamming == pytest.approx(2 * 0.25)

    def test_k9_shuffled_columns_match_exactly(self):
        rng = np.random.default_rng(9)
        t = MembershipMatrix(rows=rng.dirichlet(np.ones(9), size=40))
        shuffled = MembershipMatrix(rows=t.rows[:, rng.permutation(9)])
        report = membership_errors(shuffled, t)
        assert report.hamming == 0
        assert report.relative == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), K=st.integers(2, 9))
    def test_invariant_under_column_shuffles(self, seed, K):
        rng = np.random.default_rng(seed)
        t = MembershipMatrix(rows=rng.dirichlet(np.ones(K), size=10))
        h = MembershipMatrix(rows=rng.dirichlet(np.ones(K), size=10))
        base = membership_errors(h, t)
        perm = tuple(rng.permutation(K))
        shuffled = MembershipMatrix(rows=h.rows[:, perm])
        report = membership_errors(shuffled, t)
        assert report.hamming == pytest.approx(base.hamming, abs=1e-12)
        assert report.relative == pytest.approx(base.relative, abs=1e-12)

    def test_relative_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            K = int(rng.integers(1, 7))
            n = int(rng.integers(2, 25))
            t = rng.dirichlet(np.ones(K), size=n)
            h = rng.dirichlet(np.ones(K), size=n)
            expected = min(
                np.linalg.norm(h - t[:, list(perm)])
                for perm in itertools.permutations(range(K))
            ) / np.linalg.norm(t)
            report = membership_errors(MembershipMatrix(rows=h), MembershipMatrix(rows=t))
            assert report.relative == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(7)
        t = MembershipMatrix(rows=rng.dirichlet(np.ones(3), size=8))
        h = MembershipMatrix(rows=rng.dirichlet(np.ones(3), size=8))
        perm = rng.permutation(8)
        base = membership_errors(h, t)
        moved = membership_errors(
            MembershipMatrix(rows=h.rows[perm]), MembershipMatrix(rows=t.rows[perm])
        )
        assert moved.hamming == pytest.approx(base.hamming, abs=1e-12)


# q_fsum and q_fmean against the Gram-matrix oracle; the worst gap seen over
# 400 random binary, weighted and empty-layer networks was 1.03e-15
MODULARITY_ABS = 1e-13


def per_layer_modularity(a, rows):
    """Fuzzy modularity of one layer from the n x n Gram matrix Pi Pi^T,
    in float64: the textbook formula the package's A Pi form rearranges."""
    a = np.asarray(a, dtype=np.float64)
    degrees = a.sum(axis=1)
    m = float(degrees.sum())
    gram = rows @ rows.T
    return (float(np.sum(a * gram)) - float(degrees @ gram @ degrees) / m) / m


class TestModularity:
    def test_k1_is_exactly_zero(self):
        net = two_triangles()
        ones = MembershipMatrix(rows=np.ones((6, 1)))
        assert q_fsum(net, ones) == pytest.approx(0, abs=1e-15)
        assert q_fmean(net, ones) == pytest.approx(0, abs=1e-15)

    def test_uniform_membership_is_exactly_zero(self):
        net = two_triangles()
        uniform = MembershipMatrix(rows=np.full((6, 3), 1 / 3))
        assert q_fsum(net, uniform) == pytest.approx(0, abs=1e-15)

    def test_two_triangles_pure_partition(self):
        net = two_triangles()
        pi = pure([0, 0, 0, 1, 1, 1], 2)
        assert q_fsum(net, pi) == pytest.approx(0.5, abs=1e-12)
        assert q_fmean(net, pi) == pytest.approx(0.5, abs=1e-12)

    def test_identical_layers_average_to_single_value(self):
        a = two_triangles().layers[0]
        net = MultiLayerNetwork(layers=np.stack([a, a]))
        pi = pure([0, 0, 0, 1, 1, 1], 2)
        assert q_fmean(net, pi) == pytest.approx(0.5, abs=1e-12)

    def test_empty_layer_skipped_with_warning(self):
        a = two_triangles().layers[0]
        net = MultiLayerNetwork(layers=np.stack([a, np.zeros_like(a)]))
        pi = pure([0, 0, 0, 1, 1, 1], 2)
        with pytest.warns(EmptyLayerWarning):
            assert q_fmean(net, pi) == pytest.approx(0.5, abs=1e-12)

    def test_empty_network_errors(self):
        net = MultiLayerNetwork(layers=np.zeros((1, 4, 4)))
        pi = pure([0, 0, 1, 1], 2)
        with pytest.raises(EmptyNetworkError):
            q_fsum(net, pi)
        with pytest.raises(EmptyNetworkError):
            q_fmean(net, pi)

    def test_column_permutation_invariance(self):
        net = two_triangles()
        rng = np.random.default_rng(5)
        pi = MembershipMatrix(rows=rng.dirichlet(np.ones(3), size=6))
        base = q_fsum(net, pi)
        for perm in itertools.permutations(range(3)):
            assert q_fsum(net, MembershipMatrix(rows=pi.rows[:, perm])) == pytest.approx(base)

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_equals_per_layer_formula_exactly(self, K):
        pi = generate_membership(90, K, 10, seed=K)
        net = sample_mlmmsb(pi, generate_connectivity(K, 7, seed=K, rho=0.3), seed=K)
        pi_hat = MembershipMatrix(rows=np.random.default_rng(K).dirichlet(np.ones(K), 90))
        rows = pi_hat.rows
        values = [per_layer_modularity(a, rows) for a in net.layers if a.sum() > 0]
        # the A Pi form sums in another order than the Gram oracle
        assert q_fmean(net, pi_hat) == pytest.approx(
            float(np.mean(values)), rel=0, abs=MODULARITY_ABS
        )
        assert q_fsum(net, pi_hat) == pytest.approx(
            per_layer_modularity(net.layers.sum(axis=0), rows), rel=0, abs=MODULARITY_ABS
        )

    def test_empty_and_weighted_layers_equal_per_layer_formula(self):
        pi = generate_membership(60, 3, 10, seed=1)
        binary = sample_mlmmsb(pi, generate_connectivity(3, 1, seed=2, rho=0.5), seed=3)
        a = binary.layers[0]
        weighted = np.where(a > 0, np.random.default_rng(4).choice([0.1, 1 / 3, 2.5], a.shape), 0.0)
        weighted = np.triu(weighted) + np.triu(weighted, k=1).T
        net = MultiLayerNetwork(layers=np.stack([a, np.zeros_like(a), weighted]))
        rows = np.random.default_rng(5).dirichlet(np.ones(3), 60)
        expected = float(np.mean([per_layer_modularity(x, rows) for x in (a, weighted)]))
        with pytest.warns(EmptyLayerWarning, match="skipped 1 empty"):
            got = q_fmean(net, MembershipMatrix(rows=rows))
        assert got == pytest.approx(expected, rel=0, abs=MODULARITY_ABS)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        K=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(["binary", "weighted", "empty"]), min_size=1, max_size=4),
    )
    def test_matches_gram_formula(self, seed, n, K, kinds):
        rng = np.random.default_rng(seed)
        layers = []
        for kind in kinds:
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.9), k=1)
            if kind == "weighted":
                upper = upper * rng.choice([0.1, 1 / 3, 2.5, 7.0], (n, n))
            elif kind == "empty":
                upper = np.zeros((n, n))
            layers.append(upper + upper.T)
        stack = np.stack(layers).astype(float)
        # stored as uint8 unless a weighted layer holds a value other than 0/1
        net = MultiLayerNetwork(layers=stack)
        rows = rng.dirichlet(np.ones(K), n)
        pi_hat = MembershipMatrix(rows=rows)
        nonempty = [a for a in stack if a.sum() > 0]
        if not nonempty:
            with pytest.raises(EmptyNetworkError):
                q_fsum(net, pi_hat)
            with pytest.raises(EmptyNetworkError):
                q_fmean(net, pi_hat)
            return
        want_sum = per_layer_modularity(stack.sum(axis=0), rows)
        assert q_fsum(net, pi_hat) == pytest.approx(want_sum, rel=0, abs=MODULARITY_ABS)
        want_mean = float(np.mean([per_layer_modularity(a, rows) for a in nonempty]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyLayerWarning)
            got_mean = q_fmean(net, pi_hat)
        assert got_mean == pytest.approx(want_mean, rel=0, abs=MODULARITY_ABS)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 20), K=st.integers(1, 4), L=st.integers(1, 3))
    def test_invariant_under_power_of_two_weight_scaling(self, data, n, K, L):
        # weights and memberships on a coarse dyadic grid keep every
        # intermediate in the normal range at 2^+-1000, so no rounding differs
        k = data.draw(st.integers(-1000, 1000), label="k")
        weights = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=L * n * n, max_size=L * n * n)
        )
        upper = np.triu(np.reshape(weights, (L, n, n)))
        stack = upper + np.triu(upper, k=1).transpose(0, 2, 1)
        assume(all(a.any() for a in stack))
        rows = []
        for _ in range(n):
            cuts = sorted(data.draw(st.lists(st.integers(0, 8), min_size=K - 1, max_size=K - 1)))
            rows.append(np.diff([0, *cuts, 8]) / 8)
        pi_hat = MembershipMatrix(rows=np.array(rows))
        net = MultiLayerNetwork(layers=stack)
        scaled = MultiLayerNetwork(layers=np.ldexp(stack, k))
        assert q_fsum(scaled, pi_hat) == q_fsum(net, pi_hat)
        assert q_fmean(scaled, pi_hat) == q_fmean(net, pi_hat)

    @pytest.mark.parametrize("score", [q_fsum, q_fmean])
    def test_overflowing_edge_weight_total_raises(self, score):
        net = MultiLayerNetwork(layers=1e308 * two_triangles().layers.astype(float))
        with pytest.raises(UnusableDataError):
            score(net, pure([0, 0, 0, 1, 1, 1], 2))

    def test_overflowing_layer_sum_raises(self):
        layer = 1e308 * two_triangles().layers[0].astype(float)
        net = MultiLayerNetwork(layers=np.stack([layer, layer]))
        with pytest.raises(UnusableDataError, match="sum of layers overflows"):
            q_fsum(net, pure([0, 0, 0, 1, 1, 1], 2))

    @pytest.mark.parametrize("score", [q_fsum, q_fmean])
    def test_peak_memory_below_9_n2(self, score):
        # one float64 n x n buffer (the layer sum, or one binary layer cast)
        # and n x K products; a Gram matrix Pi Pi^T alone would add 8 n^2
        n = 800
        pi = generate_membership(n, 3, 100, seed=1)
        net = sample_mlmmsb(pi, generate_connectivity(3, 4, seed=2, rho=0.3), seed=3)
        assert net.binary
        tracemalloc.start()
        try:
            score(net, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * n**2

    def test_matches_newman_girvan_for_pure_single_layer(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 8
            a = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
            a = a + a.T
            if a.sum() == 0:
                continue
            labels = list(rng.integers(0, 2, size=n))
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            net = MultiLayerNetwork(layers=a[None, :, :])
            expected = newman_girvan(a, labels)
            assert q_fsum(net, pure(labels, 2)) == pytest.approx(expected, abs=1e-12)
            assert q_fmean(net, pure(labels, 2)) == pytest.approx(expected, abs=1e-12)


class TestClassifyNodes:
    def test_labels_and_home(self):
        rows = np.array([[1, 0, 0], [0.5, 0.3, 0.2], [0.7, 0.2, 0.1]])
        cls = classify_nodes(MembershipMatrix(rows=rows))
        assert cls.label == (HIGHLY_PURE, HIGHLY_MIXED, NEUTRAL)
        assert list(cls.home_community) == [0, 0, 0]

    def test_thresholds_inclusive(self):
        rows = np.array([[0.6, 0.4], [0.9, 0.1]])
        cls = classify_nodes(MembershipMatrix(rows=rows))
        assert cls.label == (HIGHLY_MIXED, HIGHLY_PURE)

    def test_balanced_columns_give_upsilon_one(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        assert classify_nodes(MembershipMatrix(rows=rows)).upsilon == pytest.approx(1.0)

    def test_fraction_sum_bounded(self):
        rng = np.random.default_rng(1)
        cls = classify_nodes(MembershipMatrix(rows=rng.dirichlet(np.ones(3), size=50)))
        assert cls.sigma_mixed + cls.sigma_pure <= 1


class TestEstimateK:
    def planted_two_block(self, n=150, L=20, rho=0.4, seed=0):
        rows = np.zeros((n, 2))
        rows[: n // 2, 0] = 1
        rows[n // 2 :, 1] = 1
        pi = MembershipMatrix(rows=rows)
        b = np.array([[0.9, 0.1], [0.1, 0.9]])
        conn = ConnectivityStack(matrices=np.stack([b] * L), rho=rho)
        return sample_mlmmsb(pi, conn, seed)

    def test_singleton_range(self):
        net = self.planted_two_block()
        selection = estimate_k(net, "spsum", [3])
        assert selection.best_k == 3
        assert 3 in selection.scores

    def test_recovers_planted_k(self):
        net = self.planted_two_block(seed=42)
        for criterion in ("FSUM", "FMEAN"):
            selection = estimate_k(net, "spsum", range(1, 6), criterion)
            assert selection.best_k == 2

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_recovers_planted_k_on_assortative_blocks(self, K):
        # diagonal U[0.6, 1], off-diagonal U[0, 0.3]: modularity rewards
        # edges inside communities, so it can pick K only where blocks are
        # assortative. At n = 300, L = 10, rho = 0.2 and seeds 0-29 every
        # method and criterion picked the planted K from 2..6 (540 of 540),
        # ahead of the runner-up by at least 0.0058; at n = 200, 6 of the
        # 540 picks missed K = 4.
        n, L, seed = 300, 10, 0
        rng = np.random.default_rng(seed + 1)
        b = np.triu(rng.uniform(0, 0.3, (L, K, K)), 1)
        b += b.transpose(0, 2, 1)
        b[:, range(K), range(K)] = rng.uniform(0.6, 1, (L, K))
        pi = generate_membership(n, K, n // (2 * K), seed)
        net = sample_mlmmsb(pi, ConnectivityStack(matrices=b, rho=0.2), seed + 2)
        for method, criterion in itertools.product(("spsum", "spdsos", "spsos"), ("fsum", "fmean")):
            assert estimate_k(net, method, range(2, 7), criterion).best_k == K, (method, criterion)

    def test_candidates_above_eight_allowed(self):
        net = self.planted_two_block()
        selection = estimate_k(net, "spsum", [2, 9])
        assert 9 in selection.scores or 9 in selection.failures
        assert selection.best_k in selection.scores

    def test_all_failures_raise(self):
        net = MultiLayerNetwork(layers=np.zeros((1, 5, 5)))
        with pytest.raises(ModelSelectionError):
            estimate_k(net, "spsum", [2, 3])

    def test_candidates_checked_as_read(self):
        net = self.planted_two_block(n=60, L=2)

        def upward():
            for k in itertools.count(2):
                assert k <= net.n + 1, "read past the first candidate out of range"
                yield k

        with pytest.raises(ModelSelectionError, match=r"^candidates must lie in \[1, 60\]$"):
            estimate_k(net, "spsum", upward())

    def test_aggregate_built_once(self, monkeypatch):
        pi = generate_membership(120, 3, 30, seed=4)
        conn = generate_connectivity(3, 6, seed=5, rho=0.4)
        net = sample_mlmmsb(pi, conn, seed=6)
        build = estimators.build_ssum_debiased
        calls = []

        def counting(net):
            calls.append(net)
            return build(net)

        monkeypatch.setattr(estimators, "build_ssum_debiased", counting)
        selection = estimate_k(net, "spdsos", range(2, 7), "fmean")
        assert len(calls) == 1
        monkeypatch.undo()
        expected = {k: q_fmean(net, spdsos(net, k).pi_hat) for k in range(2, 7)}
        assert selection.scores == expected
        assert not selection.failures

    @pytest.mark.parametrize("method", ["spsum", "spdsos", "spsos"])
    def test_fsum_sums_the_layers_once(self, monkeypatch, method):
        pi = generate_membership(120, 3, 30, seed=4)
        conn = generate_connectivity(3, 6, seed=5, rho=0.4)
        net = sample_mlmmsb(pi, conn, seed=6)
        calls = []

        def counting(build):
            def build_counted(net):
                calls.append(net)
                return build(net)

            return build_counted

        # SPSum's aggregate is built in estimators, the fsum sum in metrics
        for module in (estimators, metrics):
            monkeypatch.setattr(module, "build_asum", counting(module.build_asum))
        selection = estimate_k(net, method, range(2, 7), "fsum")
        assert len(calls) == 1
        monkeypatch.undo()
        agg = estimators.build_aggregate(net, method)
        expected = {k: q_fsum(net, estimators.estimate(agg, k, method).pi_hat) for k in range(2, 7)}
        assert {k: q.hex() for k, q in selection.scores.items()} == {
            k: q.hex() for k, q in expected.items()
        }
        assert not selection.failures

    def test_one_dense_decomposition(self, monkeypatch):
        net = self.planted_two_block()
        eigh = np.linalg.eigh
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        selection = estimate_k(net, "spdsos", range(2, 7), "fmean")
        assert calls == [(net.n, net.n)]
        assert sorted(selection.scores) == [2, 3, 4, 5, 6]

    def test_failing_k_recorded_while_others_scored(self, monkeypatch):
        net = self.planted_two_block()
        expected = estimate_k(net, "spsum", range(2, 7), "fsum").scores
        project = estimators.successive_projection

        def failing_at_4(rows, K):
            if K == 4:
                raise RankDeficiencyError("residual collapsed after 3 of 4 picks")
            return project(rows, K)

        monkeypatch.setattr(estimators, "successive_projection", failing_at_4)
        selection = estimate_k(net, "spsum", range(2, 7), "fsum")
        assert selection.failures == {
            4: "RankDeficiencyError: residual collapsed after 3 of 4 picks"
        }
        del expected[4]
        assert selection.scores == expected

    def test_shared_decomposition_error_recorded_at_every_k(self, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ModelSelectionError) as info:
            estimate_k(self.planted_two_block(), "spsum", [2, 3, 5])
        for k in (2, 3, 5):
            assert f"{k}: 'LinAlgError: Eigenvalues did not converge'" in str(info.value)

    def test_lanczos_path_one_decomposition(self, monkeypatch):
        n = DENSE_EIG_LIMIT + 52
        net = self.planted_two_block(n=n, L=2, rho=0.05, seed=1)
        agg = estimators.build_aggregate(net, "spsum")
        shared = top_k_eigen(agg, 4)
        exact = {}
        for k in (2, 3, 4):
            first = Embedding(shared.vectors[:, :k].copy(), shared.eigenvalues[:k].copy())
            exact[k] = q_fmean(net, estimators.estimate_from_embedding(first, "spsum").pi_hat)
        per_k = {k: q_fmean(net, estimators.estimate(agg, k, "spsum").pi_hat) for k in (2, 3, 4)}
        lanczos = aggregate._lanczos
        calls = []

        def counting(matrix, K):
            calls.append(K)
            return lanczos(matrix, K)

        monkeypatch.setattr(aggregate, "_lanczos", counting)
        selection = estimate_k(net, "spsum", (2, 3, 4), "fmean")
        # one solve, for k_max, whose first k pairs serve every candidate
        assert calls == [4]
        assert selection.scores == exact
        assert selection.scores == pytest.approx(per_k, abs=1e-9)
        assert selection.best_k == max(per_k, key=lambda k: (per_k[k], -k))

    def test_lanczos_decomposition_error_recorded_at_every_k(self, monkeypatch):
        net = self.planted_two_block(n=DENSE_EIG_LIMIT + 52, L=2, rho=0.05, seed=1)
        # five steps give no sixth Ritz pair for k_max = 5
        monkeypatch.setattr(aggregate, "LANCZOS_STEPS", 5)
        with pytest.raises(ModelSelectionError) as info:
            estimate_k(net, "spsum", [2, 3, 5])
        for k in (2, 3, 5):
            assert f"{k}: 'UnusableDataError: Lanczos did not converge" in str(info.value)

    @pytest.mark.parametrize(
        "size", [{}, {"n": DENSE_EIG_LIMIT + 52, "L": 2, "rho": 0.05, "seed": 1}],
        ids=["dense", "lanczos"],
    )
    def test_weighted_spdsos_selects_as_binary(self, size):
        net = self.planted_two_block(**size)
        want = estimate_k(net, "spdsos", [2, 3, 4], "fmean")
        for c in (2.0, 0.125):
            got = estimate_k(MultiLayerNetwork(layers=c * net.layers), "spdsos", [2, 3, 4], "fmean")
            assert (got.best_k, got.scores) == (want.best_k, want.scores), c

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_k(self.planted_two_block(), "spfoo", [2])
