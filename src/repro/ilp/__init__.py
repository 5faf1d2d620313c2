"""Integrated Layer Processing engine.

The paper's key engineering principle: structure the protocol so the
implementor may perform all the manipulation steps "in one or two
integrated processing loops, instead of performing them serially as is
most often done today" (§6).

This package provides:

* :class:`~repro.ilp.pipeline.Pipeline` — an ordered composition of
  stages with control-fact checking;
* :func:`~repro.ilp.fusion.plan_fusion` — partitions a pipeline into
  maximal legal integrated loops, respecting the ordering constraints the
  stages declare;
* :class:`~repro.ilp.executor.LayeredExecutor` — the conventional
  engineering: one full memory pass per stage;
* :class:`~repro.ilp.executor.IntegratedExecutor` — the ILP engineering:
  one pass per fused group, with the downstream stage consuming each word
  while it is still in a register;
* :class:`~repro.ilp.compiler.PipelineCompiler` /
  :class:`~repro.ilp.compiler.CompiledPlan` — the compile-once fast
  path: fusion planned once, groups lowered to word kernels, prices
  precomputed; :class:`~repro.ilp.compiler.PlanCache` memoizes plans
  across ADUs and flows, and ``CompiledPlan.run_batch`` executes many
  ADUs per call (observer-only plans read each row in place,
  transforming plans make one vectorized pass per kernel);
* :class:`~repro.ilp.report.ExecutionReport` — cycles, passes and Mb/s
  for either execution, priced on a machine profile.

Both executors run the *same real stages* and produce byte-identical
output; only the modelled memory behaviour differs.  That equality is a
property test in the suite — ILP "achieves the same result" by
construction, as the paper requires.
"""

from repro.ilp.pipeline import Pipeline
from repro.ilp.fusion import plan_fusion, fused_group_cost
from repro.ilp.compiler import (
    BatchResult,
    CompiledGroup,
    CompiledPlan,
    PipelineCompiler,
    PlanCache,
    PlanCacheStats,
    plan_key,
    shared_plan_cache,
    stage_signature,
)
from repro.ilp.executor import LayeredExecutor, IntegratedExecutor
from repro.ilp.report import ExecutionReport, StageExecution

__all__ = [
    "Pipeline",
    "plan_fusion",
    "fused_group_cost",
    "BatchResult",
    "CompiledGroup",
    "CompiledPlan",
    "PipelineCompiler",
    "PlanCache",
    "PlanCacheStats",
    "plan_key",
    "shared_plan_cache",
    "stage_signature",
    "LayeredExecutor",
    "IntegratedExecutor",
    "ExecutionReport",
    "StageExecution",
]
