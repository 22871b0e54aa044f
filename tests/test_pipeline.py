"""Tests for the staged de-synchronization pass pipeline.

Covers: behavioural pinning of ``desynchronize()`` across the corpus
(the wrapper must keep producing exactly what the monolithic flow
produced), pass sequencing and provenance, options validation,
clustering strategies verified end to end, partial (hybrid sync/async)
conversion including boundary-bridge mutation localization, baseline
pass sequences, and the sweep driver.
"""

import hashlib
import json

import pytest

from repro.corpus import generate
from repro.desync import (
    CLUSTERING_STRATEGIES,
    DesyncOptions,
    HandshakeMode,
    PipelineVariant,
    cluster_registers,
    desynchronize,
    run_pipeline,
    sweep_pipelines,
)
from repro.equiv import check_flow_equivalence, check_flow_equivalence_batch
from repro.utils.errors import DesyncError, OptionsError
from repro.verilog import netlist_signature

from tests import oracles
from tests.circuits import lfsr3, mixed_feedback

# ----------------------------------------------------------------------
# Behavioural pins: SHA-256 (truncated) over the de-synchronized
# netlist signature plus the headline analyses, captured from the
# pre-refactor monolithic desynchronize() on every corpus config.  If
# a pipeline change alters what the default flow emits, this fails
# loudly; update the pins only for *intentional* output changes.
# ----------------------------------------------------------------------
DESYNC_PINS = {
    "counter6": "4d469394288c3fce",
    "crc5": "9b13b4923c0075cc",
    "crc8": "d37e9e38ff4b917e",
    "diamond2x4": "3077b4a5e45cc22f",
    "fir5": "4ec98a6bbbed2f81",
    "fir8": "ad6853b36c2acbdc",
    "lfsr16": "76fa24f4254f1860",
    "lfsr8": "012c21ca9fa3b1ab",
    "mult2": "1fd084c051714259",
    "mult4": "e2fb4ef7def625b1",
    "pipe4x1": "5753043acdec809b",
    "pipe4x4": "937c08afd77e2f43",
    "pipe8x2": "6d4996d7346ce7b3",
}

# Serial-mode pins: the statically race-free discipline, including the
# fired-latch acknowledge cells and (on input-fed designs) the
# environment source domain.  fir8/fir10 are the wide-join shapes that
# exposed the two pre-fix acknowledge races; rnd8s3 is the
# multi-domain input-fed shape that motivated the environment domain.
SERIAL_DESYNC_PINS = {
    "counter6": "103472a427c0e782",
    "fir10": "c2cffd01f1c2fb8b",
    "fir8": "33c1fec3d5938aef",
    "pipe4x1": "a3e3d5e2dec1e4f9",
    "rnd8s3": "e383410de9b4140b",
}


def _fingerprint(result) -> str:
    payload = json.dumps({
        "signature": netlist_signature(result.desync_netlist),
        "domains": len(result.clustering.clusters),
        "edges": len(result.clustering.edges),
        "sync_period": round(result.sync_period(), 6),
        "desync_cycle": round(result.desync_cycle_time().cycle_time, 6),
        "area": round(result.desync_netlist.total_area(), 6),
    }, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class TestWrapperIdentity:
    @pytest.mark.parametrize("config", sorted(DESYNC_PINS))
    def test_desynchronize_output_pinned(self, config):
        result = desynchronize(generate(config))
        assert _fingerprint(result) == DESYNC_PINS[config]

    @pytest.mark.parametrize("config", sorted(SERIAL_DESYNC_PINS))
    def test_serial_output_pinned(self, config):
        result = desynchronize(
            generate(config), DesyncOptions(mode=HandshakeMode.SERIAL))
        assert _fingerprint(result) == SERIAL_DESYNC_PINS[config]

    def test_wrapper_equals_explicit_pipeline(self):
        # desynchronize() is the registered ``desync`` sequence, run on
        # a fresh netlist so no per-netlist memo is shared.
        netlist = generate("lfsr8")
        via_wrapper = desynchronize(netlist)
        via_pipeline = run_pipeline(generate("lfsr8"), pipeline="desync")
        assert via_pipeline.pipeline == via_wrapper.pipeline == "desync"
        assert (netlist_signature(via_wrapper.desync_netlist)
                == netlist_signature(via_pipeline.desync_netlist))


class TestPassSequencing:
    def test_provenance_records_every_pass(self):
        result = run_pipeline(lfsr3())
        assert [r.name for r in result.records] == [
            "cluster", "partial", "matched-delay", "latchify",
            "controller-network"]
        assert result.records[0].info["strategy"] == "scc"
        assert "skipped" in result.records[1].info
        assert "controllers" in result.records[-1].info
        assert "pipeline 'desync'" in result.provenance()

    def test_result_carries_provenance(self):
        result = desynchronize(lfsr3())
        assert [r.name for r in result.records] == [
            "cluster", "partial", "matched-delay", "latchify",
            "controller-network"]
        assert all(r.duration_ms is not None for r in result.records)

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(DesyncError, match="unknown pipeline"):
            run_pipeline(lfsr3(), pipeline="nope")

    def test_model_only_context_has_no_desync_netlist(self):
        result = run_pipeline(lfsr3(), pipeline="doubly_latched")
        assert result.network is None and result.model is not None
        with pytest.raises(DesyncError, match="no controller network"):
            _ = result.desync_netlist
        with pytest.raises(DesyncError, match="no controller network"):
            result.describe()

    @pytest.mark.parametrize("pipeline", ["doubly_latched", "nonoverlap"])
    def test_model_only_result_refuses_hold_screen(self, pipeline):
        # The baselines' model signals are latch banks, not clusters:
        # screening them would pass vacuously, so verify_hold refuses.
        result = run_pipeline(lfsr3(), pipeline=pipeline)
        with pytest.raises(DesyncError, match="no controller network"):
            result.verify_hold()


class TestOptionsValidation:
    @pytest.mark.parametrize("name", ["margin"])
    def test_negative_numbers_rejected(self, name):
        with pytest.raises(OptionsError, match=name) as info:
            DesyncOptions(**{name: -0.5})
        assert info.value.field == name

    def test_unknown_mode_rejected(self):
        with pytest.raises(OptionsError, match="handshake mode"):
            DesyncOptions(mode="turbo")

    def test_mode_string_coerced(self):
        assert DesyncOptions(mode="serial").mode is HandshakeMode.SERIAL

    def test_unknown_strategy_rejected(self):
        with pytest.raises(OptionsError, match="clustering strategy"):
            DesyncOptions(strategy="psychic")

    def test_bad_cluster_cap_rejected(self):
        with pytest.raises(OptionsError, match="cluster_cap"):
            DesyncOptions(strategy="greedy-cap", cluster_cap=0)

    def test_cap_on_capless_strategy_rejected(self):
        with pytest.raises(DesyncError, match="size cap"):
            cluster_registers(lfsr3(), strategy="scc", cap=4)

    def test_non_string_sync_banks_rejected(self):
        with pytest.raises(OptionsError, match="sync_banks"):
            DesyncOptions(sync_banks=(42,))

    def test_bare_string_sync_banks_rejected(self):
        # A bare string would silently split into per-character names.
        with pytest.raises(OptionsError, match="sync_banks"):
            DesyncOptions(sync_banks="st0")


# Five corpus configs per strategy (the feed-forward set for
# per-register, which is structurally invalid on cyclic register
# graphs).  Equivalence-checked variants run the statically race-free
# SERIAL discipline except `single`, whose one-domain fabric is safe
# under the paper's OVERLAP default.
STRATEGY_CONFIGS = {
    ("scc", HandshakeMode.SERIAL): [
        "pipe4x1", "counter6", "crc5", "lfsr8", "fir5"],
    ("per-register", HandshakeMode.SERIAL): [
        "pipe4x1", "pipe8x2", "pipe4x4", "fir5", "diamond2x4"],
    ("single", HandshakeMode.OVERLAP): [
        "pipe4x1", "counter6", "crc5", "lfsr8", "fir8"],
    ("greedy-cap", HandshakeMode.SERIAL): [
        "pipe4x1", "pipe8x2", "pipe4x4", "fir5", "diamond2x4"],
}


class TestClusteringStrategies:
    def test_per_register_rejects_cyclic_designs(self):
        with pytest.raises(DesyncError, match="cyclic controller graph"):
            cluster_registers(lfsr3(), strategy="per-register")

    def test_single_merges_everything(self):
        clustering = cluster_registers(mixed_feedback(), strategy="single")
        assert len(clustering.clusters) == 1
        assert not clustering.edges

    def test_greedy_cap_respects_cap_and_acyclicity(self):
        import networkx as nx
        clustering = cluster_registers(generate("pipe8x2"),
                                       strategy="greedy-cap", cap=3)
        assert all(len(c.registers) <= 3
                   for c in clustering.clusters.values())
        assert len(clustering.clusters) < 8  # it did merge something
        graph = nx.DiGraph(list(clustering.edges))
        assert nx.is_directed_acyclic_graph(graph)

    def test_unknown_strategy_located(self):
        with pytest.raises(DesyncError, match="unknown clustering"):
            cluster_registers(lfsr3(), strategy="nope")

    @pytest.mark.parametrize(
        "strategy,mode,config",
        [(strategy, mode, config)
         for (strategy, mode), configs in STRATEGY_CONFIGS.items()
         for config in configs],
        ids=lambda value: getattr(value, "value", value))
    def test_strategy_flow_equivalent_and_hold_clean(self, strategy, mode,
                                                     config):
        options = DesyncOptions(
            mode=mode, strategy=strategy,
            cluster_cap=3 if strategy == "greedy-cap" else None)
        result = desynchronize(generate(config), options)
        reports = check_flow_equivalence_batch(result, seeds=(0, 1),
                                               cycles=10,
                                               backend="compiled")
        for seed, report in reports.items():
            assert report.equivalent, (seed, report.divergences[:3])
        assert all(check.ok for check in result.verify_hold(rounds=8))


class TestPartialDesync:
    def test_island_formed_with_bridges(self):
        result = desynchronize(
            generate("pipe4x4"),
            DesyncOptions(sync_banks=("st0", "st1")))
        assert result.sync_island == "st0"
        island = result.clustering.clusters["st0"]
        assert island.registers == ["st0", "st1"]
        assert len(result.clustering.clusters) == 3  # island + st2 + st3
        # The boundary bridge exists as real fabric.
        assert "tok:st0>st2/r" in result.desync_netlist.instances

    def test_register_names_select_their_domain(self):
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(sync_banks=("st1",)))
        assert result.sync_island == "st1"

    def test_unknown_selection_located(self):
        with pytest.raises(OptionsError, match="sync_banks"):
            desynchronize(generate("pipe4x1"),
                          DesyncOptions(sync_banks=("ghost",)))

    def test_convex_closure_absorbs_bypass_paths(self):
        # diamond2x4: src forks into two branches that rejoin.  Keeping
        # only fork and join synchronous would wrap a handshake cycle
        # around the island, so the branches must be absorbed.
        netlist = generate("diamond2x4")
        base = cluster_registers(netlist)
        names = sorted(base.clusters)
        import networkx as nx
        graph = nx.DiGraph(list(base.edges))
        order = list(nx.topological_sort(graph))
        first, last = order[0], order[-1]
        result = desynchronize(netlist,
                               DesyncOptions(sync_banks=(first, last)))
        island = result.clustering.clusters[result.sync_island]
        assert set(island.registers) == set(names)  # everything absorbed

    def test_island_self_request_matches_critical_path(self):
        result = desynchronize(generate("pipe4x4"),
                               DesyncOptions(sync_banks=("st0", "st1")))
        key = (result.sync_island, result.sync_island)
        worst = max(result.timing.max_delay.values())
        assert result.stage_max[key] == pytest.approx(worst)
        assert result.clustering.clusters[result.sync_island].has_self_edge

    def test_partial_overlap_flow_equivalent(self):
        # The island merge removes the fine-grained edges whose hold
        # margins the full-overlap fabric violates on this shape: the
        # hybrid is overlap-safe where the full conversion is not.
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(sync_banks=("st0", "st1")))
        reports = check_flow_equivalence_batch(result, seeds=(0, 1),
                                               cycles=10,
                                               backend="compiled")
        assert all(report.equivalent for report in reports.values())
        # The measured local-clock edges show the hybrid's hold slack is
        # positive (the timed model's eager schedule would flag it).
        checks = result.verify_hold(rounds=8)
        assert checks and all(check.ok for check in checks)

    def test_broken_boundary_bridge_localized(self):
        """Bypassing the matched delay of an island-boundary bridge must
        be caught at exactly the bridge's consumer register."""
        options = DesyncOptions(sync_banks=("st0", "st1"))
        result = desynchronize(generate("pipe4x1"), options)
        island = result.sync_island
        succ = sorted(result.clustering.successors(island))[0]
        netlist = result.desync_netlist
        token = netlist.instances[f"tok:{island}>{succ}/r"]
        raw = netlist.instances[f"dl:{island}>{succ}/d0"].input_nets()[0]
        delayed = token.pins["R"]
        delayed.sinks.remove((token, "R"))
        token.pins["R"] = raw
        raw.sinks.append((token, "R"))
        netlist.invalidate_query_caches()  # direct structural edit

        ipc = [{"din": k % 2} for k in range(12)]
        report = check_flow_equivalence(result, cycles=12,
                                        inputs_per_cycle=ipc)
        assert not report.equivalent
        first = report.divergences[0]
        assert first.register == f"{succ}/b"
        assert first.cycle == 1


class TestBaselinePipelines:
    @pytest.mark.parametrize("name", ["doubly_latched", "nonoverlap"])
    def test_models_live_and_consistent(self, name):
        ctx = run_pipeline(generate("pipe4x1"), pipeline=name)
        ctx.model.check_structure()
        assert ctx.model.is_live()
        oracles.check_consistency(ctx.model)
        assert ctx.desync_cycle_time().cycle_time > 0

    def test_nonoverlap_serializes(self):
        dlap = run_pipeline(generate("pipe4x1"), pipeline="doubly_latched")
        non = run_pipeline(generate("pipe4x1"), pipeline="nonoverlap")
        assert (non.desync_cycle_time().cycle_time
                > dlap.desync_cycle_time().cycle_time)

    def test_baseline_provenance_names_kind(self):
        ctx = run_pipeline(generate("pipe4x1"), pipeline="nonoverlap")
        assert ctx.records[-1].info["kind"] == "nonoverlap"
        # One controller per latch bank: two per register.
        assert ctx.records[-1].info["controllers"] == 8

    @pytest.mark.parametrize("name", ["doubly_latched", "nonoverlap"])
    def test_controller_delay_is_one_c3_level_plus_ack_path(self, name):
        # A three-input C3 tree is one level deep; the acknowledge path
        # adds an inverter and a C2 token cell.
        from repro.netlist.cells import GENERIC
        ctx = run_pipeline(generate("pipe4x1"), pipeline=name)
        info = ctx.records[-1].info
        expected = round(GENERIC["C3"].delay + GENERIC["INV"].delay
                         + GENERIC["C2"].delay, 1)
        assert info["controller_delay_ps"] == expected == 340.0


class TestSweepDriver:
    def test_small_grid_shape_and_statuses(self):
        variants = [
            PipelineVariant("serial",
                            options=DesyncOptions(mode=HandshakeMode.SERIAL)),
            PipelineVariant("per-register-on-cyclic",
                            options=DesyncOptions(strategy="per-register",
                                                  mode=HandshakeMode.SERIAL)),
            PipelineVariant("dlap", pipeline="doubly_latched",
                            check_equivalence=False),
        ]
        columns, rows, summary = sweep_pipelines(configs=["pipe4x1", "lfsr8"],
                                                 variants=variants, seeds=(0,),
                                                 cycles=8)
        assert len(rows) == 6
        assert set(summary) == {"cells", "statuses", "desync_engines",
                                "fallback_reasons", "executor"}
        assert summary["cells"] == 6
        assert summary["executor"]["completed"] == 2  # one task per config
        assert sum(summary["statuses"].values()) == 6
        assert summary["statuses"]["ok"] >= 1
        # Status aggregation folds parameterized suffixes ("invalid: ...")
        # into their family.
        assert "invalid" in summary["statuses"]
        assert summary["desync_engines"].get("replay", 0) >= 1
        cells = [dict(zip(columns, row)) for row in rows]
        by = {(c["config"], c["variant"]): c for c in cells}
        assert by[("pipe4x1", "serial")]["status"] == "ok"
        assert by[("pipe4x1", "serial")]["equiv_ok"] is True
        # per-register is structurally invalid on the cyclic LFSR: the
        # sweep reports instead of failing.
        assert by[("lfsr8", "per-register-on-cyclic")]["status"].startswith(
            "invalid")
        assert by[("lfsr8", "dlap")]["status"] == "model-only"
        assert by[("pipe4x1", "dlap")]["desync_cycle_ps"] > 0

    def test_every_registered_strategy_appears_in_defaults(self):
        from repro.desync import default_variants
        strategies = {variant.options.strategy
                      for variant in default_variants()}
        assert strategies == set(CLUSTERING_STRATEGIES)


@pytest.fixture(scope="module")
def core_sweep_holds():
    """Run the stock grid's checked variants over the core tier and
    return ``(served, free_runs, rows, reused)``: every hold check the
    sweep computed, as ``(result, rounds, checks)``, every
    stimulus-free fabric run it started on the way, and how many cells
    took their fabric's verdict from an earlier variant."""
    import repro.equiv.flow_equivalence as flow_equivalence
    from repro.corpus import names
    from repro.desync import default_variants
    from repro.desync.flow import DesyncResult
    from repro.obs import METRICS

    def reused_cells():
        return METRICS.snapshot().get("sweep.fabrics.reused",
                                      {}).get("value", 0)

    served, free_runs = [], []
    verify_hold = DesyncResult.verify_hold
    free_run = flow_equivalence.free_run

    def spy_verify_hold(self, rounds=10):
        checks = verify_hold(self, rounds)
        served.append((self, rounds, checks))
        return checks

    def spy_free_run(result, rounds, *args, **kwargs):
        free_runs.append((result.sync_netlist.name, rounds))
        return free_run(result, rounds, *args, **kwargs)

    before = reused_cells()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DesyncResult, "verify_hold", spy_verify_hold)
        patch.setattr(flow_equivalence, "free_run", spy_free_run)
        columns, rows, _ = sweep_pipelines(
            configs=names("core"), jobs=1,
            variants=[variant for variant in default_variants()
                      if variant.check_equivalence])
    return (served, free_runs, [dict(zip(columns, row)) for row in rows],
            reused_cells() - before)


class TestSweepHoldCheck:
    """The sweep's hold verdicts come from the fabric edges its batched
    equivalence check recorded: no extra run, same margins as a
    stimulus-free run of a freshly built fabric.  A cell whose fabric
    an earlier variant of its config already verified takes that
    verdict."""

    def test_every_checked_cell_is_served_without_a_fabric_run(
            self, core_sweep_holds):
        served, free_runs, rows, reused = core_sweep_holds
        checked = [row for row in rows if row["hold_ok"] is not None]
        assert checked and reused
        assert len(served) + reused == len(checked)
        assert free_runs == []

    def test_recorded_checks_equal_a_stimulus_free_run(self,
                                                       core_sweep_holds):
        served = core_sweep_holds[0]
        for result, rounds, checks in served:
            fresh = run_pipeline(result.sync_netlist, result.options,
                                 pipeline=result.pipeline)
            assert fresh.verify_hold(rounds=rounds) == checks, (
                result.sync_netlist.name, result.options)


class TestSweepCellRelease:
    """A sweep config task frees each cell's fabric when the cell ends,
    so the next cell starts with nothing left for the collector."""

    @pytest.mark.parametrize("config", ["fir8", "pipe4x1"])
    def test_no_fabric_outlives_its_cell(self, monkeypatch, config):
        import gc

        from repro.desync import default_variants
        from repro.desync import pipeline

        found = []
        sweep_cell = pipeline._sweep_cell

        def collect_then_run(*args):
            found.append(gc.collect())
            return sweep_cell(*args)

        monkeypatch.setattr(pipeline, "_sweep_cell", collect_then_run)
        grid = default_variants()
        gc.collect()
        pipeline._sweep_config_task((config, grid, pipeline.SWEEP_SEEDS, 10))
        assert found == [0] * len(grid)


class TestSweepFabricTable:
    """A sweep config task builds, checks and verifies each distinct
    fabric once: later variants with an equal fabric key take its row
    values from the task's fabric table."""

    def test_equal_keys_build_equal_fabrics(self):
        from repro.corpus import names
        from repro.desync import default_variants
        from repro.desync.pipeline import _cell_options, _fabric_key
        from repro.utils.errors import ReproError

        shared = 0
        for config in names("core"):
            netlist = generate(config)
            fingerprints = {}
            for variant in default_variants():
                if variant.pipeline != "desync":
                    continue
                try:
                    result = run_pipeline(netlist,
                                          _cell_options(netlist, variant))
                except ReproError:
                    continue
                fingerprint = result.desync_netlist.fingerprint()
                key = _fabric_key(result)
                shared += key in fingerprints
                assert fingerprints.setdefault(key, fingerprint) \
                    == fingerprint, (config, variant.name)
        assert shared  # the table has something to share on this tier

    @pytest.mark.parametrize("config", ["counter6", "fir8"])
    def test_rows_equal_each_variant_alone(self, config):
        # counter6 is one domain: the unchecked scc-overlap reuses the
        # fabric the checked single-overlap built and verified.  fir8's
        # serial variants share fabrics.
        from repro.desync import default_variants
        from repro.desync import pipeline

        def stable(results):
            return [[value for column, value
                     in zip(pipeline.SWEEP_COLUMNS, row)
                     if not column.endswith("_ms")] for row, _ in results]

        grid = default_variants()
        together = pipeline._sweep_config_task(
            (config, grid, pipeline.SWEEP_SEEDS, 10))
        alone = [result for variant in grid
                 for result in pipeline._sweep_config_task(
                     (config, [variant], pipeline.SWEEP_SEEDS, 10))]
        assert stable(together) == stable(alone)
        assert [stats for _, stats in together] \
            == [stats for _, stats in alone]

    def test_checked_cell_verifies_a_fabric_built_unchecked(self):
        # Run after the unchecked scc-overlap on one table, the checked
        # single-overlap finds counter6's fabric without a verdict: it
        # must build and verify the fabric, as it does alone.
        from repro.desync import default_variants
        from repro.desync import pipeline

        variants = {variant.name: variant for variant in default_variants()}
        netlist = generate("counter6")

        def cell(name, fabrics):
            row, stats = pipeline._sweep_cell(
                "counter6", netlist, variants[name], pipeline.SWEEP_SEEDS,
                10, fabrics)
            return {column: value
                    for column, value in zip(pipeline.SWEEP_COLUMNS, row)
                    if not column.endswith("_ms")}, stats

        fabrics = {}
        cell("scc-overlap", fabrics)
        shared = cell("single-overlap", fabrics)
        assert len(fabrics) == 1
        assert shared == cell("single-overlap", {})
        assert shared[0]["status"] == "ok"

    def test_config_task_runs_no_collection(self, monkeypatch):
        import gc

        from repro.desync import default_variants
        from repro.desync import pipeline

        calls = []
        monkeypatch.setattr(gc, "collect", lambda *args: calls.append(args))
        pipeline._sweep_config_task(
            ("fir8", default_variants(), pipeline.SWEEP_SEEDS, 10))
        assert calls == []


#: One change per input a sweep config's rows depend on: a call
#: argument, a variant's options, or a module constant the cell reads.
ADDRESS_CHANGES = {
    "seeds": lambda monkeypatch: {"seeds": (0, 2)},
    "cycles": lambda monkeypatch: {"cycles": 9},
    "options": lambda monkeypatch: {"grid": [PipelineVariant(
        "serial", options=DesyncOptions(mode=HandshakeMode.SERIAL,
                                        margin=0.2))]},
    "MAX_EQUIV_INSTANCES": lambda monkeypatch: monkeypatch.setattr(
        "repro.desync.pipeline.MAX_EQUIV_INSTANCES", 100),
}


class TestSweepAddress:
    """A job dir files each sweep config under an address that names
    every input its rows depend on, so a changed input never serves
    stale rows."""

    @staticmethod
    def address(grid=None, seeds=(0, 1), cycles=8) -> str:
        from repro.desync.pipeline import _sweep_address
        if grid is None:
            grid = [PipelineVariant(
                "serial", options=DesyncOptions(mode=HandshakeMode.SERIAL))]
        return _sweep_address(grid, seeds, cycles)("pipe4x1", None)

    @pytest.mark.parametrize("change", sorted(ADDRESS_CHANGES))
    def test_each_row_input_changes_the_address(self, monkeypatch, change):
        base = self.address()
        assert self.address() == base
        kwargs = ADDRESS_CHANGES[change](monkeypatch) or {}
        assert self.address(**kwargs) != base


class TestShardedSweep:
    SWEEP_KWARGS = dict(
        configs=["pipe4x1", "lfsr8", "fir5"],
        variants=[PipelineVariant(
            "serial", options=DesyncOptions(mode=HandshakeMode.SERIAL))],
        seeds=(0, 1), cycles=8)

    def test_sharded_merge_matches_single_process(self):
        from repro.desync.pipeline import SWEEP_COLUMNS
        columns, solo, solo_summary = sweep_pipelines(jobs=1,
                                                      **self.SWEEP_KWARGS)
        _, sharded, sharded_summary = sweep_pipelines(jobs=2,
                                                      **self.SWEEP_KWARGS)
        timing = {SWEEP_COLUMNS.index("build_ms"),
                  SWEEP_COLUMNS.index("verify_ms")}

        def stable(rows):
            return [[value for index, value in enumerate(row)
                     if index not in timing] for row in rows]

        # Byte-identical modulo the wall-time columns: the merge is in
        # submission order, so shard scheduling cannot reorder rows.
        assert stable(sharded) == stable(solo)
        # Both runs go through the same grid runner, so even its
        # accounting matches.
        assert sharded_summary["executor"]["completed"] == 3
        assert not sharded_summary["executor"]["quarantined"]
        assert sharded_summary == solo_summary

    def test_rows_do_not_depend_on_the_grid_freeze(self, monkeypatch):
        import contextlib

        from repro.desync.pipeline import SWEEP_COLUMNS
        from repro.jobs import grid

        timing = {SWEEP_COLUMNS.index("build_ms"),
                  SWEEP_COLUMNS.index("verify_ms")}

        def stable_rows(jobs):
            _, rows, _ = sweep_pipelines(jobs=jobs, **self.SWEEP_KWARGS)
            return [[value for index, value in enumerate(row)
                     if index not in timing] for row in rows]

        frozen = {jobs: stable_rows(jobs) for jobs in (1, 2)}
        monkeypatch.setattr(grid, "_frozen_heap", contextlib.nullcontext)
        assert {jobs: stable_rows(jobs) for jobs in (1, 2)} == frozen

    def test_traced_in_process_and_pooled_runs_agree(self):
        # At jobs=1 the configs run in this process; at jobs=2 on a
        # pool whose counters and spans are folded back.  Neither may
        # double-count a counter or lose the sweeping process's trace.
        from repro.desync.pipeline import SWEEP_COLUMNS
        from repro.obs import METRICS, TRACER

        def traced(jobs):
            METRICS.reset()
            TRACER.start()
            try:
                _, rows, _ = sweep_pipelines(["pipe4x1", "counter6"],
                                             seeds=(0,), cycles=8,
                                             jobs=jobs)
                events = TRACER.events()
            finally:
                TRACER.stop()
            counters = {name: entry["value"]
                        for name, entry in METRICS.snapshot().items()
                        if name.startswith("sweep.")
                        or name == "sim.replay.fallbacks"}
            timing = {SWEEP_COLUMNS.index("build_ms"),
                      SWEEP_COLUMNS.index("verify_ms")}
            rows = [[value for index, value in enumerate(row)
                     if index not in timing] for row in rows]
            return rows, counters, events

        solo_rows, solo_counters, solo_events = traced(1)
        pool_rows, pool_counters, _ = traced(2)
        assert solo_rows == pool_rows
        assert solo_counters == pool_counters
        assert solo_counters["sweep.executor.completed"] == 2
        names = [event["name"] for event in solo_events
                 if event.get("ph") == "X"]
        assert names.count("sweep:grid") == 1
        assert names.count("sweep:cell") == 16  # 2 configs x 8 variants

    def test_changed_seeds_on_one_job_dir_recompute(self, tmp_path):
        # Configs are filed by content: a rerun with fewer seeds on the
        # same job dir must not be served the first run's rows.
        from repro.desync.pipeline import SWEEP_COLUMNS
        kwargs = dict(configs=["pipe4x1"], cycles=8,
                      variants=self.SWEEP_KWARGS["variants"])
        job_dir = str(tmp_path / "jobs")
        sweep_pipelines(seeds=(0, 1, 2), job_dir=job_dir, **kwargs)
        _, reused, summary = sweep_pipelines(seeds=(0,), job_dir=job_dir,
                                             **kwargs)
        _, fresh, _ = sweep_pipelines(seeds=(0,), **kwargs)
        assert [row[SWEEP_COLUMNS.index("equiv_seeds")]
                for row in reused] == [1]
        assert summary["executor"]["completed"] == 1
        timing = {SWEEP_COLUMNS.index("build_ms"),
                  SWEEP_COLUMNS.index("verify_ms")}

        def stable(rows):
            return [[value for index, value in enumerate(row)
                     if index not in timing] for row in rows]
        assert stable(reused) == stable(fresh)

    def test_served_sweep_adds_no_worker_telemetry(self, tmp_path):
        # A config served from the job dir did no work in this run: the
        # computing run's worker counters and spans must not come back
        # with it.
        from repro.obs import METRICS, TRACER
        kwargs = dict(configs=["pipe4x1"], seeds=(0,), cycles=8,
                      variants=self.SWEEP_KWARGS["variants"],
                      job_dir=str(tmp_path / "jobs"))

        def traced():
            METRICS.reset()
            TRACER.start()
            try:
                _, _, summary = sweep_pipelines(**kwargs)
                events = TRACER.events()
            finally:
                TRACER.stop()
            work = {name: entry["value"]
                    for name, entry in METRICS.snapshot().items()
                    if entry["type"] == "counter" and entry["value"]
                    and name.startswith(("equiv.", "sim."))}
            worker_spans = [event for event in events
                            if event.get("pid", 1) != 1]
            return summary["executor"]["completed"], work, worker_spans

        completed, work, worker_spans = traced()
        assert completed == 1 and work and worker_spans
        assert traced() == (0, {}, [])

    def test_cell_timeout_applies_at_one_job(self, monkeypatch):
        # REPRO_CELL_TIMEOUT needs a process it can kill, so even a
        # one-job sweep forks once a timeout is set; the forked worker
        # inherits the patched cell.
        import time

        from repro.desync import pipeline
        real_cell = pipeline._sweep_cell

        def wedged_on_counter6(config, *args, **kwargs):
            if config == "counter6":
                time.sleep(30)
            return real_cell(config, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_sweep_cell", wedged_on_counter6)
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0.5")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "0")
        columns, rows, summary = sweep_pipelines(
            ["pipe4x1", "counter6"], seeds=(0,), cycles=8, jobs=1,
            variants=self.SWEEP_KWARGS["variants"])
        status = {row[0]: row[columns.index("status")] for row in rows}
        assert status["pipe4x1"] == "ok"
        assert status["counter6"].startswith("quarantined: timed out")
        assert summary["executor"]["quarantined"] == ["counter6"]

    def test_jobs_env_knob(self, monkeypatch):
        from repro.jobs import JOBS_ENV, sweep_jobs
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert sweep_jobs() == 1
        monkeypatch.setenv(JOBS_ENV, "3")
        assert sweep_jobs() == 3
        monkeypatch.setenv(JOBS_ENV, "0")
        assert sweep_jobs() == 1
        monkeypatch.setenv(JOBS_ENV, "two")
        with pytest.raises(OptionsError, match="REPRO_JOBS"):
            sweep_jobs()


class TestNamingDedupe:
    def test_single_source_of_truth(self):
        from repro.desync import network
        from repro.utils import naming
        assert network.inverted_clock_name is naming.inverted_clock_name
        assert network.ack_net_name is naming.ack_net_name
        assert naming.clock_net_name("b") == "lt:b"
        assert naming.token_net_name("a", "b") == "tok:a>b"
        assert naming.request_net_name("a", "b") == "req:a>b"
