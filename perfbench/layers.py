"""Which public entry points of each ``repro`` layer the traced pass wraps.

Each row is ``(module, owner, attributes, span name, kind)``; ``owner`` is
a class name in the module, or ``None`` for a module-level function.  A
module-level function is also patched in every module that imported it
by name (``IMPORTED_AS``), because the caller looks it up there.

The InvisiSpec policy wrappers sit on the three policies that use
InvisiSpec; the Base policy's constant ``load_is_safe`` belongs to the
conventional core, so a Base cell records no ``invisispec`` call.
"""

from __future__ import annotations

import importlib

from perfbench.spans import COUNT, FUTURE, SPAN

TARGETS = (
    # sim: the cycle loop and the event queue
    ("repro.sim.kernel", "SimKernel", ("run",), "sim.kernel", SPAN),
    ("repro.sim.events", "EventQueue", ("run_at",), "sim.events.run_at", SPAN),
    ("repro.sim.events", "EventQueue", ("schedule",), "sim.events.scheduled", COUNT),
    # workloads: op-stream generation and the functional predictor warmup
    ("repro.workloads.generator", "SyntheticTrace", ("next_op",), "workloads.next_op", SPAN),
    ("repro.runner", None, ("_pretrain_predictor",), "workloads.pretrain", SPAN),
    # cpu: the per-cycle pipeline and its load/store-queue scans
    ("repro.cpu.core", "Core", ("tick",), "cpu.tick", SPAN),
    ("repro.cpu.lsq", "LoadQueue", ("loads_to_line", "older_pending_request"), "cpu.lsq.search", SPAN),
    ("repro.cpu.lsq", "StoreQueue", ("forwarding_store", "unresolved_older_than"), "cpu.lsq.search", SPAN),
    ("repro.cpu.lsq", "_CircularQueue", ("entries",), "cpu.lsq.entries", COUNT),
    # consistency: TSO squash and validation decisions
    ("repro.consistency.tso", "TSOPolicy", ("squash_on_invalidation", "usl_needs_validation"), "consistency.squash_check", SPAN),
    # invisispec
    ("repro.invisispec.valexp", "VisibilityEngine", ("tick",), "invisispec.valexp.tick", SPAN),
    ("repro.invisispec.valexp", "VisibilityEngine", ("on_invalidation",), "invisispec.valexp.on_invalidation", COUNT),
    ("repro.invisispec.policy", "ISSpectrePolicy", ("load_is_safe",), "invisispec.policy.load_is_safe", SPAN),
    ("repro.invisispec.policy", "ISFuturePolicy", ("load_is_safe",), "invisispec.policy.load_is_safe", SPAN),
    ("repro.invisispec.policy", "SelectivePolicy", ("load_is_safe",), "invisispec.policy.load_is_safe", SPAN),
    ("repro.invisispec.sb", "SpeculativeBuffer", ("entry", "allocate", "fill", "forward_from_store", "copy", "invalidate", "read_bytes"), "invisispec.sb.ops", COUNT),
    ("repro.invisispec.llc_sb", "LLCSpeculativeBuffer", ("insert", "match", "invalidate_line"), "invisispec.llc_sb.ops", COUNT),
    # coherence, memory, network
    ("repro.coherence.hierarchy", "CacheHierarchy", ("submit",), "coherence.submit", SPAN),
    ("repro.mem.cache", "CacheArray", ("lookup",), "mem.cache.lookup", SPAN),
    ("repro.mem.tlb", "DataTLB", ("lookup",), "mem.tlb.lookup", SPAN),
    ("repro.mem.dram", "DRAMModel", ("access",), "mem.dram.access", SPAN),
    ("repro.network.noc", "NoC", ("send",), "network.send", SPAN),
    # analysis and fuzzing
    ("repro.specflow.analyzer", "SpecFlowAnalyzer", ("analyze",), "specflow.analyze", SPAN),
    ("repro.fuzz.generator", None, ("generate_programs",), "fuzz.generate", SPAN),
    ("repro.fuzz.harness", None, ("differential_check",), "fuzz.check", SPAN),
    ("repro.security.channel", "AttackContext", ("run_ops",), "fuzz.sim", SPAN),
    # reliability: worker start-up and batch dispatch
    ("multiprocessing.process", "BaseProcess", ("start",), "reliability.spawn", SPAN),
    ("repro.reliability.engine", "RunEngine", ("run_specs",), "reliability.engine", SPAN),
    ("repro.reliability.pool", "LeasePool", ("start",), "reliability.pool.start", SPAN),
    # service
    ("repro.service.server", "AnalysisService", ("submit",), "service.submit", SPAN),
    ("repro.service.store", "ResultStore", ("get",), "service.store.get", SPAN),
    ("repro.service.store", "ResultStore", ("put",), "service.store.put", SPAN),
    ("repro.reliability.pool", "LeasePool", ("submit",), "service.pool.lease", FUTURE),
)

#: module-level functions that other modules bind by name at import time
IMPORTED_AS = {
    ("repro.fuzz.generator", "generate_programs"): ("repro.fuzz.campaign",),
}


def resolve(targets=TARGETS):
    """``(owner object, attribute, span name, kind)`` for every target."""
    resolved = []
    for module_name, owner_name, attrs, name, kind in targets:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        for attr in attrs:
            resolved.append((owner, attr, name, kind))
            for other in IMPORTED_AS.get((module_name, attr), ()):
                resolved.append((importlib.import_module(other), attr, name, kind))
    return resolved
