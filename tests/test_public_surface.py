"""Every public name in ``repro`` has a reader other than the tests.

The scan covers each module under ``src/repro`` except the ``lint``
package: its module-level functions and classes, and the methods and
nested classes of those classes, whose names do not start with ``_``.
A name is *read* when it occurs as a word in

* the code of any ``src/`` Python file other than a package
  ``__init__``, outside the name's own definition and its module's
  ``__all__``. Docstrings and comments there are prose, not readers;
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
a public class that is not a dataclass must be *passed* by some call
outside the tests: in ``src/``, ``benchmarks/`` or ``examples/``, or in
a ```` ```python ```` block of ``README.md`` or ``docs/*.md``, whose
callee's last name component matches: by keyword, by enough positional
arguments to reach it, or through a ``*args``/``**kwargs`` spread. A
default that only tests override is a knob no user turns: a constant,
not an option. Dataclass fields are records (``GPUSpec``, ``Request``)
and are out of scope. Matching on the last name alone over-counts
calls, so it can hide a dead parameter; it misses calls made through
another name, such as a method held in a variable. The parameters in
``KEPT_PARAMS`` have no such caller on purpose, each for the reason
given (a data input, a workload knob, a reference or oracle a test
holds another mechanism against, a paper mechanism, a safety bound, or
a call the scan cannot see), checked for staleness like ``KEPT``.

Doc blocks count as callers, so they must not go stale: every block
parses, and every keyword a block passes to a public ``repro`` callable
(matched on its last name) is a parameter of one such callable, or one
takes ``**kwargs``.

Dataclass fields get their own check: every field of every dataclass
under ``src/repro`` (``lint`` aside) must be *read* somewhere in
``src/``, ``benchmarks/``, ``examples/``, ``tests/`` or a doc block:
loaded as an attribute of that name, or named in a string constant
(``getattr(obj, "name")``, a tuple of field names). A class whose fields
are walked whole (``fields``, ``asdict``, ``astuple`` or
``__dataclass_fields__`` of its name, or of ``self`` in its body) counts
as read. A field that is only written is state nobody uses. The fields
in ``KEPT_FIELDS`` are report and log entries no code reads yet, each
with its reason, checked for staleness like ``KEPT``.
"""

import ast
import functools
import importlib
import inspect
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
    "parallel.hybrid:hybrid_moe_block":
        "paper mechanism: one MoE block under Fig. 4's TP + EP groups",
    "hardware.topology:NodeSpec.pcie_group":
        "paper mechanism: GPU pairs sharing a PCIe link (Sec. IV-C3)",
    "baselines.cpu_only:CPUOnlyBaseline.max_model_params":
        "paper mechanism: Sec. VII-D's CPU-only capacity limit",
}


_CACHE = "data input: the KV cache a caller threads through decode steps"
_WORKLOAD = "workload description: one knob of a generated scenario trace"
_FUNCTIONAL_FLEET = ("reference: the functional fleet the simulated "
                     "schedule is held against, configured like "
                     "simulate_fleet")
_TOP_K = "reference: the top-k width the EP dispatch is held against"

KEPT_PARAMS = {
    # -- data inputs ----------------------------------------------------------
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
    # -- calls the scan cannot see ---------------------------------------------
    "engine.latency:DenseLatencyModel.decode_pass_times(tokens_per_seq=)":
        "scan miss: engine/costs.py passes it positionally through "
        "getattr(latency_model, 'decode_pass_times')",
    "kernels.costmodel:KernelCostModel.layer_times(ffn=)":
        "scan miss: engine/moe.py passes ffn=False through a local "
        "alias, times = self.kernel_model.layer_times",
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


def _strip_prose(tree: ast.Module) -> ast.Module:
    """``tree`` without its docstrings or its ``__all__`` assignment, in
    place; ``ast`` keeps no comments, so unparsing it gives bare code."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body[:1] = [] if len(body) > 1 else [ast.Pass()]
    tree.body = [node for node in tree.body if not (
        isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets))]
    return tree


@functools.lru_cache(maxsize=None)
def _scan() -> tuple[frozenset[str], frozenset[str]]:
    """(every public name, the public names with no reader)."""
    texts = {p: ast.unparse(_strip_prose(ast.parse(p.read_text())))
             for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"}
    docs = [p for d in ("benchmarks", "examples")
            for suffix in ("*.py", "*.md") for p in (ROOT / d).rglob(suffix)]
    docs += [ROOT / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs += list((ROOT / "docs").rglob("*.md"))
    texts.update((p, p.read_text()) for p in docs)
    files_with: dict[str, set[Path]] = {}
    for path, text in texts.items():
        for word in set(WORD.findall(text)):
            files_with.setdefault(word, set()).add(path)

    defined: set[str] = set()
    unread: set[str] = set()
    for module in sorted(PACKAGE.rglob("*.py")):
        rel = module.relative_to(PACKAGE)
        if rel.parts[0] == "lint":
            continue
        dotted = ".".join(rel.with_suffix("").parts)
        tree = _strip_prose(ast.parse(module.read_text()))
        code = ast.unparse(tree)
        for qual, node in _public_defs(tree):
            key = f"{dotted}:{qual}"
            defined.add(key)
            if files_with.get(node.name, set()) - {module}:
                continue
            word = re.compile(rf"\b{node.name}\b")
            if len(word.findall(code)) == len(word.findall(ast.unparse(node))):
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


_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _python_blocks(markdown: str) -> list[str]:
    """The sources of the ```python blocks of a markdown text."""
    return _PYTHON_BLOCK.findall(markdown)


@functools.lru_cache(maxsize=None)
def _doc_blocks() -> tuple[tuple[str, str], ...]:
    """(``path#index``, source) of every ```python block of README.md
    and docs/*.md."""
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    return tuple((f"{path.relative_to(ROOT)}#{i}", block)
                 for path in docs
                 for i, block in enumerate(_python_blocks(path.read_text())))


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
               for d in ("src", "benchmarks", "examples")
               for p in sorted((ROOT / d).rglob("*.py"))]
    callers += [block for _, block in _doc_blocks()]
    defined, unpassed = _param_scan(modules, callers)
    return frozenset(defined), frozenset(unpassed)


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
])
def test_param_scan_on_inline_sources(module, callers, dead):
    _, unpassed = _param_scan({"m": module}, [callers])
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
    of that name (``None`` for one that takes ``**kwargs``): functions,
    classes (their constructors) and the methods of those classes."""
    def params(obj) -> frozenset[str] | None:
        try:
            sig = inspect.signature(obj)
        except (TypeError, ValueError):  # no signature: accept any keyword
            return None
        if any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values()):
            return None
        return frozenset(sig.parameters)

    found: dict[str, list[frozenset[str] | None]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).with_suffix("")
        if rel.parts[0] == "lint" or rel.name == "__main__":
            continue
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        module = importlib.import_module(".".join(("repro", *parts)))
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None)
                    != module.__name__):
                continue
            if inspect.isfunction(obj):
                found.setdefault(name, []).append(params(obj))
            elif inspect.isclass(obj):
                found.setdefault(name, []).append(params(obj))
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (
                            inspect.isfunction(member) or isinstance(
                                member, (staticmethod, classmethod))):
                        found.setdefault(attr, []).append(
                            params(getattr(obj, attr)))
    return found


def _stale_keywords(blocks) -> list[str]:
    """``where: name(keyword=)`` for each keyword a block passes to a
    public ``repro`` callable of that last name that none accepts."""
    accepted = _keywords_by_name()
    stale = []
    for where, block in blocks:
        for node in ast.walk(ast.parse(block)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            for kw in node.keywords:
                if kw.arg is not None and name in accepted and not any(
                        ps is None or kw.arg in ps for ps in accepted[name]):
                    stale.append(f"{where}: {name}({kw.arg}=)")
    return stale


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

# Calls and attributes that walk every field of the dataclass they get.
_FIELD_ITERATORS = frozenset({"__dataclass_fields__", "fields", "asdict",
                              "astuple"})


def _iterated_name(node: ast.AST) -> str | None:
    """The name whose dataclass fields ``node`` walks, if it walks any."""
    if isinstance(node, ast.Attribute) and node.attr in _FIELD_ITERATORS:
        target = node.value
    elif (isinstance(node, ast.Call) and len(node.args) == 1
          and getattr(node.func, "attr", getattr(node.func, "id", None))
          in _FIELD_ITERATORS):
        target = node.args[0]
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _field_scan(modules: dict[str, str],
                readers: list[str]) -> tuple[set[str], set[str]]:
    """(every dataclass field of ``modules``, those nothing reads), keyed
    ``module:Class.field``. A field is read when ``readers`` load it as
    an attribute or name it in a string constant; a class whose fields
    one of them walks (by class name, or through ``self`` in its own
    body) counts as wholly read."""
    words: set[str] = set()
    iterated: set[str] = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                words.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str):
                words.add(node.value)
            elif isinstance(node, ast.ClassDef) and any(
                    _iterated_name(sub) == "self" for sub in ast.walk(node)):
                iterated.add(node.name)
            walked = _iterated_name(node)
            if walked is not None:
                iterated.add(walked)
    defined: set[str] = set()
    unread: set[str] = set()
    for dotted, source in modules.items():
        for cls in ast.walk(ast.parse(source)):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    continue
                key = f"{dotted}:{cls.name}.{stmt.target.id}"
                defined.add(key)
                if stmt.target.id not in words and cls.name not in iterated:
                    unread.add(key)
    return defined, unread


@functools.lru_cache(maxsize=None)
def _repo_field_scan() -> tuple[frozenset[str], frozenset[str]]:
    modules = {
        ".".join(p.relative_to(PACKAGE).with_suffix("").parts): p.read_text()
        for p in sorted(PACKAGE.rglob("*.py"))
        if p.relative_to(PACKAGE).parts[0] != "lint"}
    readers = [p.read_text()
               for d in ("src", "benchmarks", "examples", "tests")
               for p in sorted((ROOT / d).rglob("*.py"))]
    readers += [block for _, block in _doc_blocks()]
    defined, unread = _field_scan(modules, readers)
    return frozenset(defined), frozenset(unread)


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
    assert _field_scan({"m": module}, [reader])[1] == unread
