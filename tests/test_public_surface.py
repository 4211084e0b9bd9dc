"""Every public name in ``repro`` has a reader other than the tests.

The scans here query one :class:`~repro.lint.ProjectInfo` of ``src/``,
``benchmarks/``, ``examples/`` and the ```` ```python ```` blocks of
``README.md`` and ``docs/*.md``, built once per session
(``tests/repo_project.py``).

The name scan covers each module under ``src/repro`` but the ``lint``
package: its module-level functions and classes, and their methods,
whose names do not start with ``_``. A *reader* is a code reference
outside the name's own definition: a ``Name`` or ``Attribute`` load, or
a ``getattr`` naming it as a constant. Prose (docstrings, comments,
markdown), ``__all__`` entries and re-exports are not readers, and a
definition never reads its same-named twin. A name only tests read is
surface to delete with its tests. The names in ``KEPT`` have no reader
on purpose, each for its reason: a *reference* or *oracle* a test holds
another mechanism against, an *observer* a test reads state through, a
*paper mechanism* a test pins, or a tested *substrate* or *extension*.
An entry that is gone, or that has gained a reader, fails too.

The same holds for parameters. Every defaulted parameter of a public
function, a public method, or the ``__init__`` of a public class that
is not a dataclass must be *passed* by a call outside ``tests/``: by
keyword, by enough positional arguments to reach it, or through a
``*args``/``**kwargs`` spread. A call the project resolves (a local or
imported name, a re-export, ``self.method``, a class as its
constructor) passes parameters to its resolved callee only; a local
bound once to ``x.attr`` or ``getattr(x, "attr")`` and then called is a
call of ``attr``. Only an attribute call on a receiver the project
cannot type (``obj.method(...)``) passes by last name, to every public
method of that name, never to a module-level function or a
constructor. A default only tests override is a constant, not an
option. ``KEPT_PARAMS`` lists the exceptions, each with its reason (a
data input, a workload knob, a reference or oracle, a paper mechanism,
or a safety bound), checked for staleness like ``KEPT``.

Doc blocks count as callers, so they must not go stale: every block
parses, and every keyword a block passes to a public ``repro`` callable
(matched on its last name) is a parameter of one such callable, or one
takes ``**kwargs``.

Every field of every dataclass under ``src/repro`` (``lint`` aside)
must be *read* by the project or by a module of ``tests/``: loaded as an
attribute of that name, or named in a string constant
(``getattr(obj, "name")``, a tuple of field names). A class whose
fields are walked whole (``fields``, ``asdict``, ``astuple`` or
``__dataclass_fields__`` of its name, or of ``self`` in its body)
counts as read. ``KEPT_FIELDS`` lists report and log entries no code
reads yet, each with its reason, checked for staleness like ``KEPT``.
"""

import ast
import functools
import importlib
import itertools

import pytest

from repro.lint import ProjectInfo, load_source
from repro.lint.project import ClassSummary, ModuleSymbols
from tests.repo_project import doc_blocks as _doc_blocks
from tests.repo_project import python_blocks as _python_blocks
from tests.repo_project import repo_project, scan_tests

KEPT = {
    # -- references and oracles ---------------------------------------------
    "model.moe:MoELayer.forward_topk":
        "reference: ep_moe_forward's top-k is held against it",
    "model.moe:MoELayer.forward_topk_reference":
        "reference: the per-token loop forward_topk is held against",
    "parallel.tensor_parallel:tp_spmd_forward":
        "reference: rank 0's TP logits, held against the dense model",
    "parallel.schedules:fill_drain_span":
        "oracle: closed form the simulated fill/drain schedule must hit",
    "parallel.schedules:dynamic_queue_span":
        "oracle: closed form the simulated dynamic queue must hit",
    "kernels.quant:quantization_error_bound":
        "oracle: the INT8 error bound quantize/dequantize is held to",
    "kernels.functional:fused_layernorm_mlp":
        "reference: Fig. 1c region 3, held equal to the unfused ops",
    "hardware.specs:GPUSpec.ideal_weight_read_time":
        "oracle: the HBM lower bound every priced layer must exceed",
    "kernels.analysis:machine_balance":
        "oracle: the roofline ridge decode GeMMs must sit below",
    "moe_placement.skew:zipf_gate_logits":
        "oracle: Zipf-skewed gates the placement tests route",
    "parallel.quantized:shard_quantize_column":
        "reference: column shard then quantize, held against the layer",
    "parallel.quantized:shard_quantize_row":
        "reference: row shard then quantize, held against the layer",
    "parallel.quantized:QuantizedColumnParallelLinear.forward_local":
        "reference: one rank's slice, held against the gathered output",
    "kernels.quant:dequantize":
        "reference: the float tensor an INT8 tensor encodes, held to "
        "quantization_error_bound",
    "engine.costs:BatchState.advanced":
        "oracle: the per-step state decode_run_cost is held against",
    "kernels.analysis:crossover_batch":
        "oracle: the batch where a region turns compute-bound, checked "
        "against the roofline ridge",
    # -- observers ----------------------------------------------------------
    "simcore.trace:Timeline.has_overlap":
        "observer: schedule validity of every recorded lane",
    "simcore.trace:Timeline.to_rows":
        "observer: flat spans the timeline equivalence tests compare",
    "parallel.schedules:ScheduleResult.mean_utilization":
        "observer: pins bubble amortization over micro-batches",
    "engine.trace_run:DeploymentTrace.gpu_lane":
        "observer: a GPU's lane in the deployment trace",
    "model.kvcache:HostOffloadKVCache.is_offloaded":
        "observer: where a layer's KV rests under Sec. IV-C2 offload",
    "model.kvcache:HostOffloadKVCache.device_nbytes":
        "observer: device bytes freed by Sec. IV-C2 offload",
    "model.paged_kv:BlockAllocator.free_blocks":
        "observer: free-list size the block accounting is checked by",
    "model.paged_kv:PagedKVCache.blocks_held":
        "observer: blocks one cache references, shared ones included",
    "zero.streamed_model:StreamedTransformer.resident_layers":
        "observer: layers resident under Sec. VI-B streaming",
    "zero.streamed_model:StreamedTransformer.modeled_fetch_time":
        "observer: modeled fetch time of the streamed executor",
    "zero.streamed_model:StreamedTransformer.fetches_per_forward":
        "observer: fetches per pass, pinned layers excluded",
    "zero.tiers:TieredWeightStore.tier_of":
        "observer: which tier holds a layer's weights",
    "kernels.cuda_graph:GraphRunner":
        "paper mechanism: CUDA-graph capture and replay (Sec. III-D)",
    "kernels.cuda_graph:GraphRunner.graph_for":
        "observer: the graph captured for one shape bucket",
    "kernels.cuda_graph:GraphRunner.num_graphs":
        "observer: shape buckets captured so far",
    "kernels.ops:Op.is_gemm":
        "observer: GeMM ops of a traced layer graph",
    "kernels.analysis:RegionAnalysis.arithmetic_intensity":
        "observer: a region's flops per HBM byte on the roofline",
    "moe_placement.placement:ExpertPlacement.replication_of":
        "observer: replica count of one expert",
    "parallel.hybrid:HybridGroups.ep_rank":
        "observer: a rank's position in its expert-parallel group",
    "engine.report_stats:ReportStats.tenant_latency_percentile":
        "observer: one tenant's latency tail, checked against its SLA",
    "zero.tiers:TieredWeightStore.usage":
        "observer: bytes resident in one weight tier",
    "kernels.analysis:analyze_layer":
        "observer: where each fused region of a layer sits on the roofline",
    # -- paper mechanisms ---------------------------------------------------
    "engine.moe:MoEStepBreakdown.moe_kernel_time":
        "paper mechanism: gating plus dispatch time Sec. V-C cuts ~6x",
    "parallel.hybrid:make_hybrid_groups":
        "paper mechanism: Fig. 4's MP and EP sub-communicators",
    "parallel.hybrid:hybrid_moe_block":
        "paper mechanism: one MoE block under Fig. 4's TP + EP groups",
    "hardware.topology:NodeSpec.pcie_group":
        "paper mechanism: GPU pairs sharing a PCIe link (Sec. IV-C3)",
    "baselines.cpu_only:CPUOnlyBaseline.max_model_params":
        "paper mechanism: Sec. VII-D's CPU-only capacity limit",
    "model.kvcache:HostOffloadKVCache":
        "paper mechanism: Sec. IV-C2's KV offload to host memory, "
        "functionally exact",
    "parallel.expert_parallel:expert_sliced_ffn":
        "paper mechanism: Table II's expert slicing, run functionally",
    "model.checkpoint:save_checkpoint":
        "paper mechanism: the per-layer files ZeRO-Inference streams "
        "from disk (Sec. VI-A)",
    "model.checkpoint:load_checkpoint":
        "paper mechanism: the per-layer files ZeRO-Inference streams "
        "from disk (Sec. VI-A)",
    # -- functional substrate and extensions --------------------------------
    **{f"comm.functional:Communicator.{name}":
       "substrate: an MPI collective of the functional communicator, one "
       "of the set RP001's symmetry rule checks"
       for name in ("barrier", "broadcast", "reduce_scatter")},
    "model.encoder:EncoderTransformer":
        "extension: BERT-class encoders with padding masks, the functional "
        "model family beside the decoder",
    "engine.scheduler:TenantPriority":
        "extension: priority-tier tenant admission, configured by its "
        "caller's table like TenantFairShare outside tenant_policy",
}


_CACHE = "data input: the KV cache a caller threads through decode steps"
_WORKLOAD = "workload description: one knob of a generated scenario trace"
_FUNCTIONAL_FLEET = ("reference: the functional fleet the simulated "
                     "schedule is held against, configured like "
                     "simulate_fleet")
_TOP_K = "reference: the top-k width the EP dispatch is held against"

KEPT_PARAMS = {
    # -- data inputs ----------------------------------------------------------
    "bench.runner:main(argv=)":
        "data input: the command line, sys.argv[1:] when None",
    "engine.generation:GenerationSession(eos_token=)":
        "data input: the model's end-of-sequence token",
    "engine.scheduler:TenantPriority(priorities=)":
        "data input: the tenants' priority table",
    "engine.scheduler:TenantPriority(slot_caps=)":
        "data input: the tenants' concurrent-slot caps",
    "model.encoder:EncoderTransformer(seed=)":
        "data input: the seed of the encoder's weights",
    "model.encoder:EncoderTransformer.pooled(attention_mask=)":
        "data input: the padding mask of a ragged batch",
    "model.paged_kv:blocks_needed(shared_prefix_len=)":
        "data input: the prefix a request shares with its session",
    "moe_placement.skew:zipf_gate_logits(seed=)":
        "data input: the seed of the synthetic gate logits",
    "moe_placement.placement:plan_placement(slots_per_rank=)":
        "data input: resident expert slots a rank's memory holds",
    "parallel.hybrid:hybrid_moe_block(cache=)": _CACHE,
    "parallel.pipeline:staged_forward(caches=)": _CACHE,
    "parallel.tensor_parallel:tp_forward(cache=)": _CACHE,
    # -- workload description --------------------------------------------------
    **{f"scenarios.generators:{fn}({param}=)": _WORKLOAD
       for fn, params in (
           ("chat_scenario", ("est_prefill_s", "est_step_s", "expert_skew",
                              "mean_think_time", "mean_utterance", "tenant")),
           ("agentic_scenario", ("context_len", "est_prefill_s",
                                 "est_step_s", "mean_gen",
                                 "mean_observation", "num_requests",
                                 "tenant", "tool_time")),
           ("heavy_tailed_scenario", ("median_prompt", "prompt_sigma")))
       for param in params},
    # -- references and oracles ------------------------------------------------
    **{f"fleet.functional:run_fleet_functional({param}=)": _FUNCTIONAL_FLEET
       for param in ("policy", "kv_block_size", "kv_pool_blocks",
                     "prefix_sharing")},
    "engine.costs:BatchState.advanced(steps=)":
        "oracle: the per-step state decode_run_cost is held against",
    "model.moe:MoELayer.forward_topk(k=)": _TOP_K,
    "model.moe:MoELayer.forward_topk_reference(k=)": _TOP_K,
    "parallel.expert_parallel:ep_moe_forward(k=)": _TOP_K,
    # -- paper mechanisms ------------------------------------------------------
    "model.dense:DenseTransformer(moe_layers=)":
        "paper mechanism: MoE layers inside the dense stack (Sec. V)",
    "zero.streamed_model:StreamedTransformer(tier=)":
        "paper mechanism: DRAM or NVMe weight tier (Sec. VI-A)",
    "zero.streamed_model:StreamedTransformer(pinned_layers=)":
        "paper mechanism: layers pinned on the GPU (Sec. VI-B)",
    # -- safety ----------------------------------------------------------------
    "comm.functional:Communicator.recv(timeout=)":
        "safety: bounds a receive that a broken program never matches",
}


def _repro_modules(project: ProjectInfo):
    """(name under ``repro``, symbols) of each ``repro`` module in
    ``project``, the ``lint`` package aside."""
    for module, symbols in project.symbols.items():
        if module.startswith("repro.") and not (
                module + ".").startswith("repro.lint."):
            yield module.removeprefix("repro."), symbols


def _surface(project: ProjectInfo):
    """(``module:Qual``, summary) of each public function and class of
    ``repro``, and of each public method of such a class."""
    for dotted, symbols in _repro_modules(project):
        for name, summary in [*symbols.functions.items(),
                              *symbols.classes.items()]:
            if name.startswith("_"):
                continue
            yield f"{dotted}:{name}", summary
            for method, fn in getattr(summary, "methods", {}).items():
                if not method.startswith("_"):
                    yield f"{dotted}:{name}.{method}", fn


def _inline_project(modules: dict[str, str]) -> ProjectInfo:
    """A project of ``modules`` (name -> source), each ``repro.<name>``."""
    return ProjectInfo.build(load_source(source, module=f"repro.{name}")
                             for name, source in modules.items())


def _name_scan(project: ProjectInfo) -> tuple[set[str], set[str]]:
    """(every public name, those no code outside their own definition
    reads), keyed ``module:Qual``."""
    defined: set[str] = set()
    unread: set[str] = set()
    for key, summary in _surface(project):
        defined.add(key)
        node = summary.node
        own = range(min(n.lineno for n in [node, *node.decorator_list]),
                    node.end_lineno + 1)
        if not any(module != summary.module or line not in own
                   for module, symbols in project.symbols.items()
                   for line in symbols.reads.get(summary.name, ())):
            unread.add(key)
    return defined, unread


@functools.lru_cache(maxsize=None)
def _repo_name_scan() -> tuple[set[str], set[str]]:
    return _name_scan(repo_project())


def test_every_public_name_has_a_reader():
    _, unread = _repo_name_scan()
    orphans = sorted(unread - KEPT.keys())
    assert not orphans, (
        "public names only tests read; delete them with their tests, or "
        f"add them to KEPT with a reason: {orphans}")


def test_kept_names_exist_and_are_still_unread():
    defined, unread = _repo_name_scan()
    gone = sorted(KEPT.keys() - defined)
    read = sorted((KEPT.keys() & defined) - unread)
    assert not gone, f"KEPT names that no longer exist: {gone}"
    assert not read, f"KEPT names that gained a reader: {read}"


@pytest.mark.parametrize("modules, unread", [
    pytest.param({"a": "class Router:\n    def is_alive(self): ...",
                  "b": "class FleetView:\n    def is_alive(self): ...",
                  "run": "from repro.a import Router\n"
                         "from repro.b import FleetView\n"
                         "views = [Router(), FleetView()]"},
                 {"a:Router.is_alive", "b:FleetView.is_alive"}, id="twins"),
    pytest.param({"m": "def helper(): ...\ndef run():\n    helper()",
                  "doc": '"""Call run() first."""\n# then run() again\n'},
                 {"m:run"}, id="prose"),
    pytest.param({"m": "def helper(): ...",
                  "api": 'from repro.m import helper\n__all__ = ["helper"]'},
                 {"m:helper"}, id="reexport"),
    pytest.param({"m": "def run(): ...\ndef step(): ...",
                  "doc": "\n".join(_python_blocks(
                      "```python\nfrom repro import m\nm.run()\n"
                      "x = getattr(m, 'step')\n```\n"
                      "```bash\nstep()\n```\n"))},
                 set(), id="doc-block"),
])
def test_name_scan_on_inline_sources(modules, unread):
    _, found = _name_scan(_inline_project(modules))
    assert found == unread


def _param_scan(project: ProjectInfo) -> tuple[set[str], set[str]]:
    """(every defaulted parameter in scope, those no call passes), keyed
    ``module:Qual(param=)``."""
    resolved: dict[str, list] = {}
    by_name: dict[str, list] = {}
    for symbols in project.symbols.values():
        for site in symbols.calls:
            if site.callee is not None:
                resolved.setdefault(site.callee, []).append(site)
            elif site.raw is None or "." in site.raw:  # obj.method(...)
                by_name.setdefault(site.name, []).append(site)
    defined: set[str] = set()
    unpassed: set[str] = set()
    for key, summary in _surface(project):
        fn, sites = summary, resolved.get(summary.ref, [])
        if isinstance(summary, ClassSummary):
            fn = summary.methods.get("__init__")
            if fn is None or summary.dataclass:
                continue
        elif "." in fn.qualname:
            sites = sites + by_name.get(fn.name, [])
        # the arguments a call supplies skip ``self`` and ``cls``
        bound = int("." in fn.qualname and not any(
            getattr(d, "id", None) == "staticmethod"
            for d in fn.node.decorator_list))
        index = {p.name: i - bound for i, p in enumerate(fn.positional())}
        for param in fn.params:
            if param.default is None:
                continue
            name = f"{key}({param.name}=)"
            defined.add(name)
            at = index.get(param.name)
            if not any(site.spread or param.name in site.keywords
                       or (at is not None and site.positional > at)
                       for site in sites):
                unpassed.add(name)
    return defined, unpassed


@functools.lru_cache(maxsize=None)
def _repo_param_scan() -> tuple[set[str], set[str]]:
    return _param_scan(repo_project())


def test_every_defaulted_parameter_is_passed_somewhere():
    _, unpassed = _repo_param_scan()
    dead = sorted(unpassed - KEPT_PARAMS.keys())
    assert not dead, (
        "defaulted parameters no non-test call passes; make each default "
        "a constant at its use site and delete the tests that served "
        f"only other values, or add it to KEPT_PARAMS with a reason: {dead}")


def test_kept_params_exist_and_are_still_unpassed():
    defined, unpassed = _repo_param_scan()
    gone = sorted(KEPT_PARAMS.keys() - defined)
    passed = sorted((KEPT_PARAMS.keys() & defined) - unpassed)
    assert not gone, f"KEPT_PARAMS entries that no longer exist: {gone}"
    assert not passed, f"KEPT_PARAMS entries a call now passes: {passed}"


@pytest.mark.parametrize("module, callers, dead", [
    pytest.param("def f(x, *, a=1, b=2): ...", "f(0, a=3)",
                 {"m:f(b=)"}, id="keyword"),
    pytest.param("def f(x, a=1, b=2): ...", "f(0, 1)",
                 {"m:f(b=)"}, id="positional-boundary"),
    pytest.param("def f(x, a=1, *, b=2): ...", "f(0, **kw)",
                 set(), id="kwargs-spread"),
    pytest.param("def f(x, a=1, *, b=2): ...", "f(*xs)",
                 set(), id="args-spread"),
    pytest.param("class C:\n    def m(self, x, a=1, b=2): ...",
                 "obj.m(0, 1)", {"m:C.m(b=)"}, id="method"),
    pytest.param("class C:\n    def __init__(self, a=1, b=2): ...\n"
                 "@dataclass\nclass D:\n    x: int = 0",
                 "C(1)", {"m:C(b=)"}, id="constructor"),
    pytest.param("def f(x, *, a=1, b=2): ...",
                 "\n".join(_python_blocks(
                     "Pass `a`:\n\n```python\nf(0, a=3)\n```\n\n"
                     "```bash\nf(0, b=3)\n```\n")),
                 {"m:f(b=)"}, id="doc-block"),
    pytest.param("class C:\n    def m(self, x, a=1, b=2): ...",
                 "def g(obj):\n    run = obj.m\n    run(0, b=3)",
                 {"m:C.m(a=)"}, id="local-alias"),
    pytest.param("class C:\n    def m(self, x, a=1, b=2): ...",
                 "def g(obj):\n    run = getattr(obj, 'm', None)\n"
                 "    run(0, b=3)\n    getattr(obj, 'm')(0, a=1)",
                 set(), id="constant-getattr"),
    pytest.param("def m(x, a=1): ...\nclass C:\n    def m(self, x, b=2): ...",
                 "obj.m(0, a=1, b=3)", {"m:m(a=)"}, id="shared-last-name"),
])
def test_param_scan_on_inline_sources(module, callers, dead):
    _, unpassed = _param_scan(_inline_project({"m": f"{module}\n{callers}"}))
    assert unpassed == dead


def test_doc_blocks_parse():
    """A block that fails to parse would drop its calls from the scan."""
    bad = []
    for where, block in _doc_blocks():
        try:
            ast.parse(block)
        except SyntaxError as err:
            bad.append(f"{where}: {err}")
    assert _doc_blocks(), "no ```python blocks found in the docs"
    assert not bad, f"doc blocks that do not parse: {bad}"


def _unresolved_imports(blocks) -> list[str]:
    """``where: module.name`` for each name a block imports from
    ``repro`` that the module does not have."""
    bad = []
    for where, block in blocks:
        for node in ast.walk(ast.parse(block)):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                continue
            for alias in node.names:
                try:
                    module = importlib.import_module(node.module)
                    if not hasattr(module, alias.name):
                        importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    bad.append(f"{where}: {node.module}.{alias.name}")
    return bad


def test_doc_imports_resolve():
    """A doc block whose import fails teaches a name that is gone."""
    bad = _unresolved_imports(_doc_blocks())
    assert not bad, f"doc blocks import names that do not exist: {bad}"


def test_unresolved_import_check_on_inline_block():
    block = ("from repro.engine import GenerationSession, simulate_serving\n"
             "from repro.engine.generation import GenerationSession\n")
    assert _unresolved_imports([("inline", block)]) == [
        "inline: repro.engine.GenerationSession"]


@functools.lru_cache(maxsize=None)
def _keywords_by_name() -> dict[str, list[frozenset[str] | None]]:
    """Last name -> the parameter names of each public ``repro`` callable
    of that name: a function, a method, or a class (its ``__init__``, or
    a dataclass's fields). ``None`` accepts any keyword: a callable that
    takes ``**kwargs``, or a class whose constructor is inherited."""
    def params(fn) -> frozenset[str] | None:
        if any(p.kind == "kwarg" for p in fn.params):
            return None
        return frozenset(p.name for p in fn.params)

    found: dict[str, list[frozenset[str] | None]] = {}
    for _, summary in _surface(repo_project()):
        if not isinstance(summary, ClassSummary):
            accepted = params(summary)
        elif "__init__" in summary.methods:
            accepted = params(summary.methods["__init__"])
        elif summary.dataclass and not summary.node.bases:
            accepted = frozenset(summary.fields)
        else:
            accepted = None
        found.setdefault(summary.name, []).append(accepted)
    return found


def _stale_keywords(blocks) -> list[str]:
    """``where: name(keyword=)`` for each keyword a block passes to a
    public ``repro`` callable of that last name that none accepts."""
    accepted = _keywords_by_name()
    return [f"{where}: {site.name}({kw}=)"
            for where, block in blocks
            for site in ModuleSymbols.scan(load_source(block)).calls
            if site.name in accepted
            for kw in sorted(site.keywords)
            if not any(ps is None or kw in ps for ps in accepted[site.name])]


def test_doc_keywords_are_parameters():
    stale = _stale_keywords(_doc_blocks())
    assert not stale, f"doc blocks pass keywords no callable takes: {stale}"


def test_stale_keyword_check_on_inline_block():
    block = ("from repro.engine import GenerationSession\n"
             "GenerationSession(model, eos_token=0, offload_idle_kv=True)\n")
    assert _stale_keywords([("inline", block)]) == [
        "inline: GenerationSession(offload_idle_kv=)"]


KEPT_FIELDS = {
    "engine.latency:LatencyReport.kernel_time_per_step":
        "report: the kernel share of one step, next to its comm share",
    "engine.offload:OffloadReport.scheme":
        "report: the offload schedule the makespan was timed under",
    "zero.tiers:FetchEvent.layer":
        "log: the layer one streamed fetch moved",
    "zero.tiers:FetchEvent.tier":
        "log: the tier one streamed fetch read from",
}


def _field_scan(project: ProjectInfo,
                readers) -> tuple[set[str], set[str]]:
    """(every dataclass field of ``project``'s ``repro`` modules, those
    no module of ``readers`` reads), keyed ``module:Class.field``."""
    read: set[str] = set()
    walked: set[str] = set()
    for symbols in readers:
        read |= symbols.attr_loads
        read |= symbols.strings
        walked |= symbols.field_walks
    defined: set[str] = set()
    unread: set[str] = set()
    for dotted, symbols in _repro_modules(project):
        for cls in symbols.classes.values():
            for name in cls.fields:
                key = f"{dotted}:{cls.name}.{name}"
                defined.add(key)
                if name not in read and cls.name not in walked:
                    unread.add(key)
    return defined, unread


@functools.lru_cache(maxsize=None)
def _repo_field_scan() -> tuple[set[str], set[str]]:
    project = repo_project()
    return _field_scan(
        project, itertools.chain(project.symbols.values(), scan_tests()))


def test_every_dataclass_field_is_read():
    _, unread = _repo_field_scan()
    dead = sorted(unread - KEPT_FIELDS.keys())
    assert not dead, (
        "dataclass fields nothing reads; delete them with their writes, "
        f"or add them to KEPT_FIELDS with a reason: {dead}")


def test_kept_fields_exist_and_are_still_unread():
    defined, unread = _repo_field_scan()
    gone = sorted(KEPT_FIELDS.keys() - defined)
    read = sorted((KEPT_FIELDS.keys() & defined) - unread)
    assert not gone, f"KEPT_FIELDS entries that no longer exist: {gone}"
    assert not read, f"KEPT_FIELDS entries that gained a reader: {read}"


@pytest.mark.parametrize("reader, unread", [
    pytest.param("r.a = 1", {"m:R.a", "m:R.b"}, id="store-only"),
    pytest.param("print(r.a)", {"m:R.b"}, id="attribute-load"),
    pytest.param("getattr(r, 'b')", {"m:R.a"}, id="string-constant"),
    pytest.param("dataclasses.fields(R)", set(), id="fields-of-class"),
    pytest.param("class R:\n    def f(self):\n"
                 "        return list(self.__dataclass_fields__)",
                 set(), id="fields-of-self"),
])
def test_field_scan_on_inline_sources(reader, unread):
    module = "@dataclass\nclass R:\n    a: int\n    b: int = 0\n"
    project = _inline_project({"m": module})
    readers = [*project.symbols.values(),
               ModuleSymbols.scan(load_source(reader))]
    assert _field_scan(project, readers)[1] == unread
