"""Every public name in ``repro`` has a reader other than the tests.

The scan covers each module under ``src/repro`` except the ``lint``
package: its module-level functions and classes, and the methods and
nested classes of those classes, whose names do not start with ``_``.
A name is *read* when it occurs as a word in

* any ``src/`` Python file other than a package ``__init__``, outside
  the name's own definition and its module's ``__all__``;
* ``benchmarks/``, ``examples/``, ``README.md``, ``DESIGN.md``,
  ``EXPERIMENTS.md`` or ``docs/``.

Re-exports and ``__all__`` entries are not readers: a name that only
tests call is surface to delete with its tests. The names in ``KEPT``
have no reader on purpose, each for the reason given: a *reference* or
*oracle* a test holds another mechanism against, an *observer* a test
reads state through, or a *paper mechanism* a test pins. The list
cannot go stale: an entry that is gone, or that has gained a reader,
fails too.

The same holds one level down, for parameters. Every defaulted
parameter of a public function, a public method, or the ``__init__`` of
a public class that is not a dataclass must be *passed* by some call in
``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` whose callee's
last name component matches: by keyword, by enough positional arguments
to reach it, or through a ``*args``/``**kwargs`` spread. A default that
no call ever overrides is a constant, not an option. Dataclass fields
are records (``GPUSpec``, ``Request``) and are out of scope. Matching
on the last name alone over-counts calls, so it can hide a dead
parameter; it misses only calls made through another name, such as a
class held in a variable, and a parameter set that way goes in
``KEPT_PARAMS`` with its reason, checked for staleness like ``KEPT``.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

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
    "kernels.functional:fused_layernorm_qkv":
        "reference: Fig. 1c region 1, held equal to the unfused ops",
    "kernels.functional:fused_layernorm_mlp":
        "reference: Fig. 1c region 3, held equal to the unfused ops",
    "kernels.functional:fused_bias_gelu":
        "reference: the GeMM epilogue, held equal to bias then GeLU",
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
    # -- paper mechanisms ---------------------------------------------------
    "engine.moe:MoEStepBreakdown.moe_kernel_time":
        "paper mechanism: gating plus dispatch time Sec. V-C cuts ~6x",
    "parallel.hybrid:make_hybrid_groups":
        "paper mechanism: Fig. 4's MP and EP sub-communicators",
    "hardware.topology:NodeSpec.pcie_group":
        "paper mechanism: GPU pairs sharing a PCIe link (Sec. IV-C3)",
    "baselines.cpu_only:CPUOnlyBaseline.max_model_params":
        "paper mechanism: Sec. VII-D's CPU-only capacity limit",
}


KEPT_PARAMS = {
    "engine.scheduler:TenantPriority(slot_caps=)":
        "input check: test_non_integer_slot_caps_rejected sets it through "
        "a parametrized class, policy(slot_caps=), which the scan cannot "
        "see",
}


def _public_defs(tree: ast.Module):
    """(qualified name, node) of every public top-level def and class,
    and of the public members of each such class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, kinds)
                            and not member.name.startswith("_")):
                        yield f"{node.name}.{member.name}", member


def _all_lines(tree: ast.Module) -> set[int]:
    """0-based line numbers of the module's ``__all__`` assignment."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            lines.update(range(node.lineno - 1, node.end_lineno))
    return lines


@functools.lru_cache(maxsize=None)
def _scan() -> tuple[frozenset[str], frozenset[str]]:
    """(every public name, the public names with no reader)."""
    texts = [p for p in (ROOT / "src").rglob("*.py")
             if p.name != "__init__.py"]
    texts += [p for d in ("benchmarks", "examples")
              for suffix in ("*.py", "*.md") for p in (ROOT / d).rglob(suffix)]
    texts += [ROOT / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    texts += list((ROOT / "docs").rglob("*.md"))
    files_with: dict[str, set[Path]] = {}
    for path in texts:
        for word in set(WORD.findall(path.read_text())):
            files_with.setdefault(word, set()).add(path)

    defined: set[str] = set()
    unread: set[str] = set()
    for module in sorted(PACKAGE.rglob("*.py")):
        rel = module.relative_to(PACKAGE)
        if rel.parts[0] == "lint":
            continue
        dotted = ".".join(rel.with_suffix("").parts)
        source = module.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        exports = _all_lines(tree)
        for qual, node in _public_defs(tree):
            key = f"{dotted}:{qual}"
            defined.add(key)
            if files_with.get(node.name, set()) - {module}:
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list]) - 1
            rest = "\n".join(
                line for i, line in enumerate(lines)
                if i not in exports and not first <= i < node.end_lineno)
            if not re.search(rf"\b{node.name}\b", rest):
                unread.add(key)
    return frozenset(defined), frozenset(unread)


def test_every_public_name_has_a_reader():
    _, unread = _scan()
    orphans = sorted(unread - KEPT.keys())
    assert not orphans, (
        "public names only tests read; delete them with their tests, or "
        f"add them to KEPT with a reason: {orphans}")


def test_kept_names_exist_and_are_still_unread():
    defined, unread = _scan()
    gone = sorted(KEPT.keys() - defined)
    read = sorted((KEPT.keys() & defined) - unread)
    assert not gone, f"KEPT names that no longer exist: {gone}"
    assert not read, f"KEPT names that gained a reader: {read}"



def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted_params(tree: ast.Module):
    """(qualified name, callee name, parameter, positional index) of each
    defaulted parameter in scope; the index counts the arguments a call
    supplies (``self`` and ``cls`` excluded) and is ``None`` for a
    keyword-only parameter."""
    for qual, node in _public_defs(tree):
        if isinstance(node, ast.ClassDef):
            fn = next((m for m in node.body if isinstance(m, ast.FunctionDef)
                       and m.name == "__init__"), None)
            if fn is None or _is_dataclass(node):
                continue
            bound = 1
        else:
            fn = node
            bound = int("." in qual and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list))
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield qual, node.name, arg.arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qual, node.name, arg.arg, None


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)):
        return True
    return index is not None and len(call.args) > index


def _param_scan(modules: dict[str, str],
                callers: list[str]) -> tuple[set[str], set[str]]:
    """(every defaulted parameter in scope, those no call passes), keyed
    ``module:Qual(param=)``, over ``modules`` (dotted name -> source)
    and the calls in ``callers`` (sources)."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                calls.setdefault(name, []).append(node)
    defined: set[str] = set()
    unpassed: set[str] = set()
    for dotted, source in modules.items():
        for qual, callee, param, index in _defaulted_params(
                ast.parse(source)):
            key = f"{dotted}:{qual}({param}=)"
            defined.add(key)
            if not any(_passes(c, param, index)
                       for c in calls.get(callee, ())):
                unpassed.add(key)
    return defined, unpassed


@functools.lru_cache(maxsize=None)
def _repo_param_scan() -> tuple[frozenset[str], frozenset[str]]:
    modules = {
        ".".join(p.relative_to(PACKAGE).with_suffix("").parts): p.read_text()
        for p in sorted(PACKAGE.rglob("*.py"))
        if p.relative_to(PACKAGE).parts[0] != "lint"}
    callers = [p.read_text()
               for d in ("src", "tests", "benchmarks", "examples")
               for p in sorted((ROOT / d).rglob("*.py"))]
    defined, unpassed = _param_scan(modules, callers)
    return frozenset(defined), frozenset(unpassed)


def test_every_defaulted_parameter_is_passed_somewhere():
    _, unpassed = _repo_param_scan()
    dead = sorted(unpassed - KEPT_PARAMS.keys())
    assert not dead, (
        "defaulted parameters no call passes; make each default a "
        "constant at its use site, or add it to KEPT_PARAMS with a "
        f"reason: {dead}")


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
])
def test_param_scan_on_inline_sources(module, callers, dead):
    _, unpassed = _param_scan({"m": module}, [callers])
    assert unpassed == dead
