import dataclasses
import gc
import hashlib
import warnings
import zipfile
from unittest import mock

import numpy as np
import pytest
from helpers import (
    ErrorSample,
    reference_oob_coverage,
    reference_quantiles,
    reference_train,
    table_from_samples,
)
from hypothesis import assume, example, given, strategies as st

from probfcast import qrf
from probfcast.combine import DEFAULT_LEVELS
from probfcast.error_model import ErrorTable
from probfcast.exceptions import ConfigError, DataError
from probfcast.qrf import (
    CovariateVector,
    ForestConfig,
    load_forest,
    oob_coverage,
    predict_quantiles,
    predict_quantiles_batch,
    predict_weights,
    save_forest,
    train,
)
from probfcast.scoring import DEFAULT_INTERVALS

LEV = np.array([0.05, 0.25, 0.5, 0.75, 0.95])


def make_table(leads, labels, errors):
    return table_from_samples(
        ErrorSample(int(t), m, float(e)) for t, m, e in zip(leads, labels, errors)
    )


@st.composite
def forest_cases(draw):
    """Small tables with tied errors, and forest configs to grow on them."""
    n = draw(st.integers(2, 24))
    leads = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    errors = draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0]), min_size=n, max_size=n))
    replace = draw(st.booleans())
    # n - 1 and n leave rows in-bag in every tree (or all of them) without replacement
    counts = [1, n // 2, n - 1, n] + ([2 * n] if replace else [])
    config = ForestConfig(
        num_trees=draw(st.integers(1, 20)),
        mtry=draw(st.integers(1, 2)),
        min_node_size=draw(st.sampled_from([1, 3])),
        sample_count=draw(st.sampled_from(counts)),
        seed=draw(st.integers(0, 1000)),
        replace=replace,
    )
    return leads, labels, errors, config


@st.composite
def leaf_one_cases(draw):
    """One row per lead, so every leaf holds one distinct row and running sums are integers."""
    n = draw(st.integers(2, 16))
    errors = draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n))
    replace = draw(st.booleans())
    config = ForestConfig(
        num_trees=draw(st.sampled_from([1, 2, 3, 4, 8, 10, 12, 20])),
        mtry=draw(st.integers(1, 2)),
        sample_count=draw(st.sampled_from([1, n // 2, n - 1] + ([n] if replace else []))),
        seed=draw(st.integers(0, 1000)),
        replace=replace,
    )
    return list(range(n)), ["a"] * n, errors, config


def assert_same_trees(got, expected):
    """Every _Tree field equal bit for bit, with its dtype and shape."""
    assert len(got) == len(expected)
    for t, (a, b) in enumerate(zip(got, expected)):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), (t, f.name)
            assert x.tobytes() == y.tobytes(), (t, f.name)


def archive_arrays(forest):
    """The arrays ``save_forest`` writes of a forest's trees, by name."""
    counts = {"node_counts": forest.node_counts, "cat_counts": forest.cat_counts}
    return {**vars(forest.arrays), **counts}


def random_table(rng, n=400, n_labels=3, lead_max=168):
    leads = rng.integers(0, lead_max + 1, size=n)
    labels = [f"m{int(i)}" for i in rng.integers(0, n_labels, size=n)]
    errors = rng.normal(0, 1 + leads / 84.0)
    return make_table(leads, labels, errors)


class TestTraining:
    def test_single_distinct_value_everywhere(self):
        table = make_table([1, 50, 120, 80], ["a", "a", "b", "b"], [7.0] * 4)
        forest = train(table, ForestConfig(num_trees=20, sample_count=4, seed=0))
        for lead, label in ((1, "a"), (120, "b"), (60, "a")):
            out = predict_quantiles(forest, CovariateVector(lead, label), LEV)
            np.testing.assert_array_equal(out.values, np.full(5, 7.0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        table = random_table(rng)
        cfg = ForestConfig(num_trees=30, sample_count=64, seed=12)
        f1, f2 = train(table, cfg), train(table, cfg)
        leads = list(range(0, 169, 7))
        labels = ["m0"] * len(leads)
        a = predict_quantiles_batch(f1, leads, labels, LEV)
        b = predict_quantiles_batch(f2, leads, labels, LEV)
        np.testing.assert_array_equal(a, b)
        assert_same_trees(f1.trees, f2.trees)

    def test_config_validation(self):
        table = random_table(np.random.default_rng(0), n=50)
        with pytest.raises(ConfigError):
            train(table, ForestConfig(sample_count=51))
        with pytest.raises(ConfigError):
            train(table, ForestConfig(mtry=3, sample_count=10))
        with pytest.raises(ConfigError):
            train(table, ForestConfig(num_trees=0, sample_count=10))
        with pytest.raises(DataError):
            train(
                ErrorTable(np.empty(0), np.empty(0), np.empty(0), ()),
                ForestConfig(sample_count=1),
            )

    def test_bootstrap_with_replacement_allows_oversampling(self):
        table = random_table(np.random.default_rng(1), n=30)
        forest = train(table, ForestConfig(num_trees=10, sample_count=60, replace=True, seed=2))
        out = predict_quantiles(forest, CovariateVector(10, "m0"), LEV)
        assert np.all(np.diff(out.values) >= 0)

    def test_tree_arrays_pinned(self):
        """Every _Tree array, bit for bit, for configs the CLI golden test does not reach."""
        table = random_table(np.random.default_rng(43), n=500, n_labels=6)
        rng = np.random.default_rng(47)
        tied = make_table(
            rng.integers(0, 13, size=300),
            [f"m{int(i)}" for i in rng.integers(0, 6, size=300)],
            rng.integers(-2, 3, size=300) * 0.5,  # few distinct errors: tied costs and label means
        )
        cases = {
            "mtry2": (table, ForestConfig(num_trees=25, mtry=2, sample_count=128, seed=3)),
            "min_node_size3": (
                table, ForestConfig(num_trees=25, min_node_size=3, sample_count=128, seed=4)
            ),
            "replace": (table, ForestConfig(num_trees=25, sample_count=256, seed=5, replace=True)),
            "tied": (tied, ForestConfig(num_trees=25, mtry=2, sample_count=128, seed=6)),
        }
        for name, (t, config) in cases.items():
            trees = train(t, config).trees
            assert_same_trees(trees, reference_train(t, config))
            digests = {}
            for f in dataclasses.fields(trees[0]):
                h = hashlib.sha256()
                for tree in trees:
                    a = getattr(tree, f.name)
                    h.update(str(a.shape).encode())
                    h.update(a.tobytes())
                digests[f.name] = (getattr(trees[0], f.name).dtype.str, h.hexdigest())
            assert digests == TREE_DIGESTS[name], name

    @given(case=forest_cases())
    # Tied costs: catches the label winning ties, the last minimum winning
    # and an unstable partition.
    @example(case=(
        [0, 3, 5, 4, 0, 4, 2, 1],
        list("bccabcaa"),
        [-1.5, -1.5, 2.0, -1.5, -1.5, -1.5, -1.5, 2.0],
        ForestConfig(num_trees=17, mtry=2, min_node_size=3, sample_count=7, seed=764),
    ))
    def test_matches_reference_grower(self, case):
        """The lock-step grower against the per-node recursion, bit for bit."""
        leads, labels, errors, config = case
        table = make_table(leads, labels, errors)
        assert_same_trees(train(table, config).trees, reference_train(table, config))


# Per _Tree field: its dtype and the sha256 over every tree's (shape, bytes).
TREE_DIGESTS = {
    "mtry2": {
        "feature": ("|i1", "1b6d2f95850979d2b2f1c99cd30ae5637b8658f06850a38e687cd07dd7c6aac0"),
        "threshold": ("<f8", "6287efa12137a43dc94699fead0d34c26c12d87ff78166b22fae09496779879b"),
        "cat_index": ("<i4", "5f71186e6338a1c104d6610d7bbbdf148dafeac85cc5543b2fb87bb3133eadb7"),
        "left": ("<i4", "15e8c33620e01e98ffe76ec0af4e7276bf1c79ee96b3ba6b3c50ec2ca73938c6"),
        "right": ("<i4", "f8ccd0111f56e21090db99563312b37a8eb1ce189293c22f8fe12f0d15a4c1ae"),
        "leaf_start": ("<i4", "21e78cf616d049a6eb53703d88eee9e9ccc7e0e6c3d61518adfb5685ae16be6f"),
        "leaf_count": ("<i4", "e2069a8ba03ac696a96f5f4e899434557d26361a9fd36afe2db126e53da72478"),
        "leaf_rows": ("<i4", "90d2d73700a3303ab0d9a26cbafaec6b58a57de4585e83be4a603154ac8700e7"),
        "cat_left": ("|b1", "e93c68b078c0e0ba5132af44b34d594143abc558bd835e2cfb2311d3935939de"),
        "inbag": ("<i4", "253c5ebfb796b2ac585e2edf1a7136b5b288dcfc4e98dee3e9dfc7b15ff7f390"),
    },
    "min_node_size3": {
        "feature": ("|i1", "90762d71ec6b0fdd3557dbc3076c4fda4c56a132384957f6f9a57a6b133ff782"),
        "threshold": ("<f8", "a31e6d84e56f05837d3e4b528b041f2f629ee87b810cecea34de3f34cf712c9e"),
        "cat_index": ("<i4", "c3958ba3cbfbff866225b4824b767d15b81f4f99aba608f395da244f0569e361"),
        "left": ("<i4", "dca0b6cfa58bb23e022a6a5a91e85f0803ff676c61df1f7b671e5d0076845bb6"),
        "right": ("<i4", "b910772988cc1d1786f12c8c9cae87dbfcd06b4023e6b9102631dad699d9bab2"),
        "leaf_start": ("<i4", "8b78cd4708d6a4374c64c5930d107ffca1c8d4390fd18c06d7cc7d8d2f0f8e6c"),
        "leaf_count": ("<i4", "7b43aa1bf5eb57f26d4ac163a6792dd86e3c6bc0d618e722006a18c5ece1e051"),
        "leaf_rows": ("<i4", "9323eaa8ecbdbdcc6feaa549ee3e1079979df821d1ae7410b01663b12fb11afe"),
        "cat_left": ("|b1", "132cffb57d609fe1ef67969fa93c30bedb8a5494ec2b368d9f2b38bc0a751de1"),
        "inbag": ("<i4", "944fd1c7e6e91bc6f43fe5f362459d0d65fc15c1fc6311ac0f040638ec9c463a"),
    },
    "replace": {
        "feature": ("|i1", "26534eb597db4958081fc14ec20a619ce295b0962ae10644a4a715a60241594f"),
        "threshold": ("<f8", "8cff2eba545d81f6f1a41c106be173023cb6b7efbd00d5d6297562c8fcd243e3"),
        "cat_index": ("<i4", "894edd16349b1c8df60151f96b97eaf8dbef700f6845b69ceccdc54b59297604"),
        "left": ("<i4", "df9d6a4d96a1ee8f8dffc9bddae84ec690cdf17c5fa73cfd1ad55f88e20b521c"),
        "right": ("<i4", "61b454431295e64ab919923cd7f9868443d3efecfd525fb0e615c7c586b92071"),
        "leaf_start": ("<i4", "737bd0d8101beba724f637c6aa7de84881200bf8177ec79c7aabecabbf2661b5"),
        "leaf_count": ("<i4", "c3934e25ea248d85b69092f2b8b381afb31c826e4807f78b2af2645b1aa667a6"),
        "leaf_rows": ("<i4", "c1035722f469b4a83acd617f5b91becc5ad302f17e4fefcac44b1d1f15069a07"),
        "cat_left": ("|b1", "9ceb16f24eae9955d0ee4013fba23d05987777169f0558b1d7b530833f4547f0"),
        "inbag": ("<i4", "05898dc1cf99998857537bb7ed278990cfc5c4d2277567c6e5e813b50b588895"),
    },
    "tied": {
        "feature": ("|i1", "59459ed23ab98c1c51193a4316949c5719478b6c5ab8c380f17d8f91c7ca6537"),
        "threshold": ("<f8", "f4989228af84b44c474c0740f487243651253a4776d6ef3abfa68039e4df104d"),
        "cat_index": ("<i4", "1f4401328dceddc2bc8183c3b39ac17035393f099af4e8c364d43953fb8043c3"),
        "left": ("<i4", "cfee0403cefda075fedd24a82f10bbbfe9a594777406078e0e961b95435eb7f6"),
        "right": ("<i4", "3b8c6bdf8374143657787fe6640a71e109666690416dd93ac912f70312035425"),
        "leaf_start": ("<i4", "a3b624e537693d21b6a4b75133a6ed2b18ee42a23ddca87cca7f8e53160ffff8"),
        "leaf_count": ("<i4", "cab3c4d740b4ac9f299862c3632b5b29a163bb3b3bd07916f7033ad358088990"),
        "leaf_rows": ("<i4", "412a2a112cb2e2360e9a0135ffd4dc5452feb51ffc3ef85741ff92a3ac4a6a30"),
        "cat_left": ("|b1", "4f524c328e5aab138cf34d3149ee1d85e6837d153f0229f52267020ebc5168c8"),
        "inbag": ("<i4", "8b56a6656626c4e171e81dcf74e2f9ed3a5ead6695ed992ebd1e4ef174136edc"),
    },
}


@st.composite
def train_many_cases(draw):
    """Error tables of different row counts and label sets, in label orders of
    their own, with configs that share what shapes a lock-step pass; and a
    random split of them into chunks."""
    mtry, mns = draw(st.integers(1, 2)), draw(st.sampled_from([1, 3]))
    sample_count = draw(st.integers(1, 12))
    tables, configs = [], []
    for _ in range(draw(st.integers(1, 6))):
        replace = draw(st.booleans())
        n = draw(st.integers(1 if replace else sample_count, 24))
        label_set = tuple(draw(st.permutations("abcde"))[: draw(st.integers(1, 5))])
        codes = draw(st.lists(st.integers(0, len(label_set) - 1), min_size=n, max_size=n))
        leads = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        errors = draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0]), min_size=n, max_size=n))
        tables.append(ErrorTable(leads, codes, errors, label_set))
        config = ForestConfig(
            num_trees=draw(st.integers(1, 8)),
            mtry=mtry,
            min_node_size=mns,
            sample_count=sample_count,
            seed=draw(st.integers(0, 1000)),
            replace=replace,
        )
        configs.append(config)
    cuts = sorted(draw(st.sets(st.integers(1, len(tables) - 1))) if len(tables) > 1 else [])
    return tables, configs, [0, *cuts, len(tables)]


class TestTrainMany:
    @given(case=train_many_cases())
    def test_train_many_equals_each_forest_grown_alone(self, case):
        """Every chunk's forests, archive arrays and counts, bit for bit as ``train``
        alone, and tree by tree as the per-node recursion."""
        tables, configs, bounds = case
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            grown = qrf.train_many(tables[lo:hi], configs[lo:hi])
            assert len(grown) == hi - lo
            for forest, table, config in zip(grown, tables[lo:hi], configs[lo:hi]):
                alone = train(table, config)
                assert forest.table is table and forest.config == config
                got, expected = archive_arrays(forest), archive_arrays(alone)
                for name, a in expected.items():
                    b = got[name]
                    assert (b.dtype, b.shape) == (a.dtype, a.shape), name
                    assert b.tobytes() == a.tobytes(), name
                assert_same_trees(forest.trees, reference_train(table, config))

    def test_train_many_on_pinned_configs_matches_the_reference_grower(self):
        """A chunk of the pinned tables, one with a label fewer, against the per-node recursion."""
        rng = np.random.default_rng(43)
        wide = random_table(rng, n=300, n_labels=6)
        narrow = random_table(rng, n=200, n_labels=5)
        configs = [
            ForestConfig(num_trees=n, mtry=2, sample_count=64, seed=s)
            for n, s in ((12, 3), (7, 1_000_003))
        ]
        for forest, table, config in zip(
            qrf.train_many([wide, narrow], configs), (wide, narrow), configs
        ):
            assert forest.arrays.cat_left.shape[1] == len(table.label_set)
            assert_same_trees(forest.trees, reference_train(table, config))

    def test_train_many_rejects_configs_that_cannot_share_a_pass(self):
        table = random_table(np.random.default_rng(0), n=50)
        base = ForestConfig(num_trees=3, sample_count=10)
        for other in (dict(mtry=2), dict(min_node_size=2), dict(sample_count=11)):
            with pytest.raises(ConfigError):
                qrf.train_many([table, table], [base, dataclasses.replace(base, **other)])
        with pytest.raises(ValueError):
            qrf.train_many([table, table], [base])
        with pytest.raises(ValueError):
            qrf.train_many([], [])
        with pytest.raises(ConfigError):  # each config is checked against its own table
            qrf.train_many([table, random_table(np.random.default_rng(1), n=5)], [base, base])


class TestWeights:
    def test_single_tree_leaf_weights(self):
        # one tree, full sample; the (lead<=?) split isolates {1.0, 2.0}
        table = make_table([10, 10, 100, 100], ["a", "a", "a", "a"], [1.0, 2.0, 10.0, 20.0])
        forest = train(table, ForestConfig(num_trees=1, mtry=2, sample_count=4, seed=0))
        w = predict_weights(forest, CovariateVector(10, "a"))
        low = w[np.asarray(forest.table.errors) < 5.0]
        assert np.isclose(w.sum(), 1.0, atol=1e-12)
        assert low.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        table = random_table(rng)
        forest = train(table, ForestConfig(num_trees=40, sample_count=64, seed=9))
        for _ in range(20):
            x = CovariateVector(int(rng.integers(0, 169)), f"m{int(rng.integers(0, 3))}")
            w = predict_weights(forest, x)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_two_regime_mass_concentration(self):
        table = make_table(
            [10, 10, 10, 100, 100, 100],
            ["a"] * 6,
            [1.0, 2.0, 3.0, 10.0, 20.0, 30.0],
        )
        forest = train(
            table, ForestConfig(num_trees=200, mtry=2, sample_count=6, replace=True, seed=4)
        )
        w = predict_weights(forest, CovariateVector(10, "a"))
        assert w[:3].sum() >= 0.95

    def test_quantiles_match_weight_definition(self):
        rng = np.random.default_rng(8)
        table = random_table(rng, n=200)
        forest = train(table, ForestConfig(num_trees=25, sample_count=32, seed=1))
        x = CovariateVector(42, "m1")
        w = predict_weights(forest, x)
        order = np.argsort(forest.table.errors, kind="stable")
        cw = np.cumsum(w[order])
        expected = [forest.table.errors[order][np.searchsorted(cw, q)] for q in LEV]
        out = predict_quantiles(forest, x, LEV)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)


class TestQuantilePrediction:
    def test_uniform_weight_median(self):
        table = make_table([5, 5, 5], ["a", "a", "a"], [1.0, 2.0, 3.0])
        forest = train(table, ForestConfig(num_trees=1, mtry=2, sample_count=3, seed=0))
        out = predict_quantiles(forest, CovariateVector(5, "a"), [0.5])
        assert out.values[0] == 2.0

    def test_label_keyed_constant_recovered_exactly(self):
        rng = np.random.default_rng(7)
        n = 120
        leads = rng.integers(0, 169, size=n)
        labels = ["glm" if i % 3 == 0 else f"m{i % 3}" for i in range(n)]
        errors = [7.0 if lab == "glm" else float(rng.normal(lab == "m1", 2)) for lab in labels]
        table = make_table(leads, labels, errors)
        forest = train(table, ForestConfig(num_trees=50, mtry=2, sample_count=n, seed=3))
        for lead in (0, 13, 99, 168):
            out = predict_quantiles(forest, CovariateVector(lead, "glm"), DEFAULT_LEVELS)
            np.testing.assert_array_equal(out.values, np.full(DEFAULT_LEVELS.size, 7.0))

    def test_lead_keyed_step_function_recovered_exactly(self):
        # response depends on lead only; with both covariates offered at
        # every split and full-sample trees, recovery is exact
        rng = np.random.default_rng(17)
        probes = np.array([0, 59, 60, 119, 120, 168])
        leads = np.concatenate([probes, rng.integers(0, 169, size=84)])
        labels = [f"m{i % 2}" for i in range(leads.size)]
        errors = np.where(leads < 60, -2.0, np.where(leads < 120, 0.5, 4.0))
        table = make_table(leads, labels, errors)
        forest = train(
            table, ForestConfig(num_trees=40, mtry=2, sample_count=leads.size, seed=5)
        )
        for lead in probes:
            expected = -2.0 if lead < 60 else (0.5 if lead < 120 else 4.0)
            out = predict_quantiles(forest, CovariateVector(int(lead), "m0"), LEV)
            np.testing.assert_array_equal(out.values, np.full(5, expected))

    def test_monotone_in_level(self):
        rng = np.random.default_rng(11)
        table = random_table(rng)
        forest = train(table, ForestConfig(num_trees=50, sample_count=64, seed=2))
        for _ in range(200):
            x = CovariateVector(int(rng.integers(0, 169)), f"m{int(rng.integers(0, 3))}")
            out = predict_quantiles(forest, x, DEFAULT_LEVELS)
            assert np.all(np.diff(out.values) >= 0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        table = random_table(rng, n=300)
        forest = train(table, ForestConfig(num_trees=30, sample_count=50, seed=6))
        leads = [0, 10, 55, 168]
        labels = ["m0", "m2", "m1", "m0"]
        batch = predict_quantiles_batch(forest, leads, labels, LEV)
        for i, (t, lab) in enumerate(zip(leads, labels)):
            single = predict_quantiles(forest, CovariateVector(t, lab), LEV)
            np.testing.assert_array_equal(batch[i], single.values)

    def test_level_validation(self):
        table = random_table(np.random.default_rng(0), n=50)
        forest = train(table, ForestConfig(num_trees=5, sample_count=20, seed=0))
        x = CovariateVector(5, "m0")
        with pytest.raises(ValueError):
            predict_quantiles(forest, x, [])
        with pytest.raises(ValueError):
            predict_quantiles(forest, x, [0.0, 0.5])
        with pytest.raises(ValueError):
            predict_quantiles(forest, x, [0.5, 0.5])

    def test_unknown_label_rejected(self):
        table = random_table(np.random.default_rng(0), n=50)
        forest = train(table, ForestConfig(num_trees=5, sample_count=20, seed=0))
        with pytest.raises(KeyError):
            predict_quantiles(forest, CovariateVector(5, "nope"), LEV)

    def test_more_trees_stabilise_the_median(self):
        rng = np.random.default_rng(19)
        table = random_table(rng, n=2000)
        x = CovariateVector(84, "m1")
        meds = {10: [], 250: []}
        for trees in meds:
            for seed in range(20):
                forest = train(table, ForestConfig(num_trees=trees, sample_count=128, seed=seed))
                meds[trees].append(predict_quantiles(forest, x, [0.5]).values[0])
        assert np.var(meds[250]) < np.var(meds[10])


class TestOob:
    def test_iid_errors_recover_nominal_coverage_per_lead(self):
        rng = np.random.default_rng(23)
        per_lead = 300
        leads = np.repeat(np.arange(169), per_lead)
        labels = [f"m{int(i)}" for i in rng.integers(0, 3, size=leads.size)]
        errors = rng.normal(leads / 50.0, 1 + leads / 84.0)
        table = make_table(leads, labels, errors)
        forest = train(table, ForestConfig(seed=29))
        oob = oob_coverage(forest)
        assert oob.skipped == 0
        assert oob.lead_hours.size == 169
        dev95 = np.abs(oob.coverage[:, oob.intervals.index(0.95)] - 0.95)
        assert dev95.max() <= 0.05

    def test_four_interval_curves(self):
        table = random_table(np.random.default_rng(1), n=500)
        forest = train(table, ForestConfig(num_trees=40, sample_count=64, seed=5))
        oob = oob_coverage(forest, intervals=(0.5, 0.8, 0.9, 0.95))
        assert oob.coverage.shape[1] == 4
        assert np.all((oob.coverage >= 0) & (oob.coverage <= 1))
        assert oob.n_rows.sum() + oob.skipped == table.n_rows

    def test_single_tree_oob_is_deterministic(self):
        table = random_table(np.random.default_rng(2), n=60)
        forest = train(table, ForestConfig(num_trees=1, sample_count=30, seed=8))
        a = oob_coverage(forest)
        b = oob_coverage(forest)
        np.testing.assert_array_equal(a.coverage, b.coverage)
        # exactly the in-bag rows are predictable-free; the rest are scored
        assert a.n_rows.sum() == 30

    def test_rows_in_bag_everywhere_are_skipped_and_counted(self):
        table = make_table(range(6), ["a"] * 6, np.arange(6.0))
        forest = train(table, ForestConfig(num_trees=3, sample_count=5, seed=1))
        oob = oob_coverage(forest)
        assert oob.skipped >= 1
        assert oob.n_rows.sum() + oob.skipped == table.n_rows

    def test_all_rows_in_bag_fails_loudly(self):
        table = make_table([1, 2], ["a", "a"], [0.0, 1.0])
        forest = train(table, ForestConfig(num_trees=5, sample_count=2, seed=0))
        with pytest.raises(DataError, match="no out-of-bag rows"):
            oob_coverage(forest)


class TestKernelAgainstReference:
    """The vectorised kernel against per-query and per-row reference loops."""

    # The top level lets rounding put a target past a row's total weight.
    LEVELS = np.append(DEFAULT_LEVELS, np.nextafter(1.0, 0.0))
    INTERVALS = DEFAULT_INTERVALS + (1.0 - 2.0**-52,)

    # leaf_one_cases' integer running sums can equal a target exactly: the
    # boundary of the prediction search, which counts the sums below it.
    @given(case=forest_cases() | leaf_one_cases())
    @example(case=([0, 1, 2, 3, 4, 5], ["a"] * 6, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                   ForestConfig(num_trees=3, sample_count=5, seed=1)))
    def test_matches_reference_exactly(self, case):
        leads, labels, errors, config = case
        forest = train(make_table(leads, labels, errors), config)
        table = forest.table
        # every table row as a query (with repeats), plus a lead beyond the table
        q_leads = list(table.lead_hours) + [9]
        q_labels = [table.label_set[c] for c in table.label_codes] + [table.label_set[-1]]
        batch = predict_quantiles_batch(forest, q_leads, q_labels, self.LEVELS)
        try:
            expected = reference_oob_coverage(forest, self.INTERVALS)
        except DataError:
            with pytest.raises(DataError, match="no out-of-bag rows"):
                oob_coverage(forest, intervals=self.INTERVALS)
            expected = None
        else:
            oob = oob_coverage(forest, intervals=self.INTERVALS)
        ref = [
            reference_quantiles(forest, lead, forest.label_code(lab), self.LEVELS)
            for lead, lab in zip(q_leads, q_labels)
        ]
        np.testing.assert_array_equal(batch, np.array(ref))
        if expected is not None:
            lead_hours, n_rows, coverage, skipped = expected
            np.testing.assert_array_equal(oob.lead_hours, lead_hours)
            np.testing.assert_array_equal(oob.n_rows, n_rows)
            np.testing.assert_array_equal(oob.coverage, coverage)
            assert oob.skipped == skipped

    def oob_or_none(self, forest):
        try:
            return oob_coverage(forest, intervals=self.INTERVALS)
        except DataError:
            with pytest.raises(DataError, match="no out-of-bag rows"):
                reference_oob_coverage(forest, self.INTERVALS)
            return None

    def assert_oob_equal(self, oob, expected):
        lead_hours, n_rows, coverage, skipped = expected
        np.testing.assert_array_equal(oob.lead_hours, lead_hours)
        np.testing.assert_array_equal(oob.n_rows, n_rows)
        assert oob.coverage.tobytes() == coverage.tobytes()
        assert oob.skipped == skipped

    # Ties, leaves of one row whose integer running sums can equal a target
    # exactly (kept * 0.25 and kept * 0.75 at kept a multiple of 4, 10 * 0.1),
    # and the past-the-total clamp at 1 - 2**-53.  In the second example, the
    # one out-of-bag row (error 7.0) sees one leaf of seven rows, whose weights
    # sum to 1 - 2**-52: q_hi clamps to 6.0, a miss.
    @given(case=forest_cases() | leaf_one_cases())
    @example(case=([0, 1, 2, 3], ["a"] * 4, [0.0, 1.0, 1.0, 2.0],
                   ForestConfig(num_trees=8, sample_count=1, seed=0)))
    @example(case=([0] * 8, ["a"] * 8, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 6.0],
                   ForestConfig(num_trees=1, sample_count=7, seed=0)))
    def test_oob_running_sums_match_reference(self, case):
        leads, labels, errors, config = case
        forest = train(make_table(leads, labels, errors), config)
        oob = self.oob_or_none(forest)
        assume(oob is not None)
        self.assert_oob_equal(oob, reference_oob_coverage(forest, self.INTERVALS))

    @given(case=forest_cases() | leaf_one_cases())
    def test_oob_forced_fallback_matches_reference(self, case):
        leads, labels, errors, config = case
        forest = train(make_table(leads, labels, errors), config)
        in_trees = np.zeros(forest.table.n_rows, dtype=np.int64)
        for tree in forest.trees:
            in_trees[np.unique(tree.inbag)] += 1
        with mock.patch.object(qrf, "_SUM_ERROR", np.inf):
            oob = self.oob_or_none(forest)
        assume(oob is not None)
        assert oob.fallback == np.count_nonzero((in_trees > 0) & (in_trees < forest.num_trees))
        self.assert_oob_equal(oob, reference_oob_coverage(forest, self.INTERVALS))

    def test_oob_estimates_lie_within_the_bound(self):
        """At every entry of a row's stack, the full-forest running sum less the
        in-bag trees' entries is within the bound of the kept entries' own sum."""
        table = random_table(np.random.default_rng(4), n=600)
        forest = train(table, ForestConfig(num_trees=60, sample_count=64, seed=3))
        stack, combo = qrf._gather(forest, table.lead_hours, table.label_codes, positions=True)
        sums, T = qrf._running_sums(stack.bounds, stack.weights), forest.num_trees
        trees = forest.trees
        in_trees = [[t for t in range(T) if r in trees[t].inbag] for r in range(table.n_rows)]
        worst = 0.0
        for r in [r for r in range(table.n_rows) if in_trees[r]][:80]:
            b0, b1 = stack.bounds[combo[r]], stack.bounds[combo[r] + 1]
            kept, dropped = stack.weights[b0:b1].copy(), np.zeros(b1 - b0)
            for t in in_trees[r]:
                g = combo[r] * T + t
                at = stack.leaf_pos[stack.leaf_bounds[g] : stack.leaf_bounds[g + 1]] - b0
                dropped[at], kept[at] = kept[at], 0.0
            gap = np.abs((sums[b0:b1] - np.cumsum(dropped)) - np.cumsum(kept))
            worst = max(worst, gap.max() / (qrf._SUM_ERROR * (b1 - b0 + 1) * T))
        assert 0.0 < worst <= 1.0, worst

    def test_running_sums_are_each_segments_cumsum(self):
        table = random_table(np.random.default_rng(5), n=300)
        forest = train(table, ForestConfig(num_trees=30, sample_count=50, seed=2))
        stack, _ = qrf._gather(forest, table.lead_hours, table.label_codes)
        segments = np.split(stack.weights, stack.bounds[1:-1])
        expected = np.concatenate([np.cumsum(w) for w in segments])
        assert np.unique([w.size for w in segments]).size > 1
        assert qrf._running_sums(stack.bounds, stack.weights).tobytes() == expected.tobytes()

    def test_rows_in_bag_in_every_tree_are_covered(self):
        # the explicit example above must exercise skipped rows
        forest = train(
            make_table(range(6), ["a"] * 6, np.arange(6.0)),
            ForestConfig(num_trees=3, sample_count=5, seed=1),
        )
        assert reference_oob_coverage(forest, DEFAULT_INTERVALS)[3] >= 1


class TestSerialisation:
    def test_round_trip_identical_predictions(self, tmp_path):
        rng = np.random.default_rng(31)
        table = random_table(rng, n=600)
        for replace in (False, True):
            forest = train(
                table, ForestConfig(num_trees=40, sample_count=64, seed=14, replace=replace)
            )
            path = save_forest(tmp_path / f"forest_{replace}", forest)
            loaded = load_forest(path)
            assert loaded.config == forest.config
            assert loaded.table.label_set == forest.table.label_set
            assert loaded.table.skipped == forest.table.skipped
            for col in ("lead_hours", "label_codes", "errors"):
                a, b = getattr(forest.table, col), getattr(loaded.table, col)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            leads = list(range(0, 169, 11))
            labels = [f"m{i % 3}" for i in range(len(leads))]
            np.testing.assert_array_equal(
                predict_quantiles_batch(forest, leads, labels, DEFAULT_LEVELS),
                predict_quantiles_batch(loaded, leads, labels, DEFAULT_LEVELS),
            )
            assert_same_trees(loaded.trees, forest.trees)

    def test_version_gate(self, tmp_path):
        rng = np.random.default_rng(1)
        table = random_table(rng, n=40)
        forest = train(table, ForestConfig(num_trees=2, sample_count=10, seed=0))
        path = save_forest(tmp_path / "f", forest)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(DataError, match="version"):
            load_forest(path)

    @pytest.mark.parametrize(
        "key, change, member",
        [
            ("left", None, "left"),
            ("node_counts", lambda c: c + [-1, 1, 0], "left"),
            ("node_counts", lambda c: c + [1, -1, 0], "left"),
            ("feature", lambda a: a[:-3], "feature"),
            ("node_counts", lambda c: np.append(c, 1), "node_counts"),
            ("leafrow_counts", lambda c: c + [1, -1, 0], "leafrow_counts"),
            ("inbag_counts", lambda c: c - 1, "inbag_counts"),
            ("cat_counts", lambda c: c + 1, "cat_left"),
            ("leaf_count", lambda a: np.where(a > 0, a + 1, a), "leaf_count"),
            ("leaf_rows", lambda a: a + 40, "leaf_rows"),
            ("table_error", lambda a: a[:-1], "table_error"),
        ],
        ids=[
            "missing_member", "node_to_next_tree", "node_to_previous_tree", "feature_cut",
            "extra_tree_count", "leafrow_counts", "inbag_counts", "cat_counts", "leaf_sizes",
            "row_id_past_table", "table_lengths",
        ],
    )
    def test_malformed_archive_is_data_error(self, tmp_path, key, change, member):
        """A malformed archive fails at the boundary, naming the path and the member."""
        forest = train(
            random_table(np.random.default_rng(1), n=40),
            ForestConfig(num_trees=3, mtry=2, sample_count=10, seed=0),
        )
        path = save_forest(tmp_path / "f", forest)
        data = dict(np.load(path))
        if change is None:
            del data[key]
        else:
            data[key] = change(data[key])
        np.savez(path, **data)
        with pytest.raises(DataError) as info:
            load_forest(path)
        assert str(path) in str(info.value) and repr(member) in str(info.value)

    def test_unreadable_archive_is_data_error(self, tmp_path):
        table = random_table(np.random.default_rng(1), n=40)
        forest = train(table, ForestConfig(num_trees=2, sample_count=10))
        whole = save_forest(tmp_path / "whole", forest).read_bytes()
        truncated, text = tmp_path / "truncated.npz", tmp_path / "errors.csv"
        truncated.write_bytes(whole[: len(whole) // 2])
        text.write_text("lead_hours,model_label,error_degC\n0,glm,0.5\n")
        array, empty = tmp_path / "array.npy", tmp_path / "empty.npz"
        np.save(array, np.arange(3))
        empty.write_bytes(b"")
        for path in (truncated, text, array, empty):
            with pytest.raises(DataError, match="not a forest archive") as info:
                load_forest(path)
            assert str(path) in str(info.value)

    def test_unreadable_archive_closes_its_file(self, tmp_path):
        table = random_table(np.random.default_rng(1), n=40)
        forest = train(table, ForestConfig(num_trees=2, sample_count=10))
        whole = save_forest(tmp_path / "whole", forest).read_bytes()
        truncated = tmp_path / "truncated.npz"  # a zip header, then no central directory
        truncated.write_bytes(whole[: len(whole) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(DataError) as info:
                load_forest(truncated)
            message = str(info.value)
            del info
            gc.collect()
        assert message == f"{truncated}: not a forest archive: File is not a zip file"
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_archive_members_pinned(self, tmp_path):
        """Every archive member's name, dtype, shape and bytes for one fixed forest."""
        forest = train(
            random_table(np.random.default_rng(59), n=80, n_labels=4),
            ForestConfig(num_trees=5, mtry=2, sample_count=24, seed=17),
        )
        digests = {}
        with np.load(save_forest(tmp_path / "f", forest)) as archive:
            for name in archive.files:
                a = archive[name]
                h = hashlib.sha256()
                for part in (name, a.dtype.str, str(a.shape)):
                    h.update(part.encode())
                h.update(a.tobytes())
                digests[name] = h.hexdigest()
        assert list(digests) == list(ARCHIVE_DIGESTS)  # member order fixes the file bytes
        assert digests == ARCHIVE_DIGESTS

    def test_compressed_archives_still_load(self, tmp_path):
        """Forests used to be saved with np.savez_compressed; the same members
        deflated must load bit-exactly, still as format version 1."""
        rng = np.random.default_rng(7)
        config = ForestConfig(num_trees=12, sample_count=40, seed=3)
        forest = train(random_table(rng, n=300), config)
        path = save_forest(tmp_path / "stored", forest)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        assert int(members["format_version"]) == qrf.FOREST_FORMAT_VERSION == 1
        np.savez_compressed(tmp_path / "deflated.npz", **members)
        with zipfile.ZipFile(tmp_path / "deflated.npz") as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        new, old = load_forest(path), load_forest(tmp_path / "deflated.npz")
        assert old.config == new.config == forest.config
        assert old.table.label_set == new.table.label_set
        assert old.table.skipped == new.table.skipped
        for col in ("lead_hours", "label_codes", "errors"):
            a, b = getattr(old.table, col), getattr(new.table, col)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
        assert_same_trees(old.trees, new.trees)
        assert_same_trees(new.trees, forest.trees)


# Per member of the version-1 archive of the forest in test_archive_members_pinned:
# the sha256 of its name, dtype string, shape and bytes.
ARCHIVE_DIGESTS = {
    "format_version": "3f8e82d7d04fed202265f03258d9b437f1b30f07f74c052cd54aa0aac0755d7c",
    "cfg_num_trees": "5d3f0c4cee2407e2a0961a512749508988493fd11663e86c0aef1ca9506172c5",
    "cfg_mtry": "f931f8ca6db95a1567e5ac787f88ea3f16de8f4d8c4f1b3d1b910a0a1a07dd05",
    "cfg_min_node_size": "5cbc5b0717c9f6e2cc50c5ae9d52a21569ffc638c57a6398ebece4081a30d253",
    "cfg_sample_count": "df85fd7b88decad3546cf516b623bc2f262cd299e5532a29990d2edd3dfd9438",
    "cfg_seed": "32927e6e5db51e66a14e534d59c60753043d59ef2d79bdf2cc9faa719ad5f36a",
    "cfg_replace": "1654b8daa70dc12baf8603557046dcff8e9212e153f01cca1ba32525ed5cf0ba",
    "labels": "12a50e6d093305359019a82606a970328c36b4bd0d040bbb6ce7a5ce33e1fefb",
    "table_lead": "eb05e982f48e1279a22e0a70d7608aa5bfccd9a7ab2049c4e8ea45dd4523f3fd",
    "table_code": "7de6768489f5876cbbe98f09402f4a0baef94e9881b5492f66f2efcf2be74e5c",
    "table_error": "ab1df11c840363e842672b89d2362337f07b0795045092e4120f29648c05a32d",
    "table_skipped": "3f42677ead0c5f3bc2074e7227c0f20d5df0144db10cd98a3309a5a11afcee53",
    "node_counts": "a4ef069b2be6f1a7af71c11753581289b7ff93f6fda632faebda2dcde8af7aa1",
    "leafrow_counts": "dcb3f2dcce61873699a2d39def4b321deed3da4802de79e2117339ac0d6b5327",
    "cat_counts": "401c45cedcd80721d52c9360bcc95dd81feb3875ac8fbebfff7bf48e38bdd7cf",
    "inbag_counts": "a28e85361b2983db400fd1c01d88f137296c98534ba5a156d973a743b647e3fe",
    "feature": "84e30aa38052333ffbc0485522d009b1c11517e53d24e955478318fadff9c41f",
    "threshold": "a5f34583b37f753c4f46dae71fc1c5a11d3db04e2857826c240c6f515d72f5a3",
    "cat_index": "ff853b09c5752b0ebae17f6c616002a1c294799216eb31b14ed8c9d5f35cdb09",
    "left": "640b0a3df765e422e84b9ec416d6d3563770bacaf7c2406a906772b6b63f122e",
    "right": "03c0a57eb54530d958d252c0f392687d14aaf8a64bf28478ebd7c84f83a1921e",
    "leaf_start": "ee4219471c329bca2925cf7300d1bfd6faa2c351b1403eb5f9ce2d198570fb5a",
    "leaf_count": "6bbc8db41f5051f27e49b7ce722c9333871700236cda8a2dd269b0f0c1c794b1",
    "leaf_rows": "707fa5cf7ac0cbb6b0858782b86a34fad6ffe1a7c3d343633d0db0292cdadc06",
    "cat_left": "3f98f9e85030c95cc7091669326da5ef759dd64f40edad23c57eb317667cad27",
    "inbag": "bf89b52a1d8e059688bb08d1edefdfe319af688945882e073502917f26db9df8",
}
