"""Closed-loop validation: the SEU campaigns re-run with the guard armed.

The PR 4 campaign engine measures how often a transient upset reaches
the user as silent data corruption.  This module re-runs the *same*
seeded injection plan with the CED layer active and measures what is
left: every injection is evaluated once unguarded (the baseline record,
bit-identical to ``python -m repro.faults``) and once through a
:class:`~repro.guard.voting.GuardedExecutor`, producing a per-site /
per-class detection-coverage report -- baseline SDC rate vs guarded
SDC-to-user rate.

Fault-model mapping (docs/GUARD.md spells out each rung):

* **data / batch sites** -- the probe-armed transient fires during the
  first guarded execution only (the :class:`~repro.probes.Arm`
  occurrence counter advances past ``at_call``), so a re-execution
  recomputes cleanly: exactly the transient-upset contract the
  escalation ladder assumes.
* **operand sites** -- a flipped *packed operand word* is consistent
  arithmetic on wrong inputs; unit-level residue checks cannot see it.
  The executor covers the bus instead: operand fetches run at least
  DMR, with re-executions re-fetching the operand from its source
  (transient bus upsets do not persist), so disagreement exposes the
  flip and the vote recovers the clean value.
* **structural sites** -- netlists/pipelines/schedules are pure
  functions of their specs; the guard re-derives the artifact and
  compares (duplicate-and-compare), so a corrupted artifact is either
  caught by analysis rules (rejected and rebuilt) or by the compare.

Determinism matches the baseline campaign: records are pure functions
of ``(config, policy, injection)``, aggregation is sorted, and parallel
runs merge by injection id -- serial and parallel reports are
byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict

from ..faults.campaign import (CampaignConfig, _batch_inputs, _fan_out,
                               _golden_batch, _golden_scalar, _pool,
                               _same_cs, _same_ieee, _scalar_operands,
                               _scalar_unit, _site_of, plan_injections,
                               run_injection)
from ..faults.sites import (SITE_CLASSES, FaultSite, flip_word,
                            make_transform, params_for_unit, select_sites)
from ..fma.convert import cs_to_ieee
from ..fma.formats import CSFloat
from ..probes import Arm, armed
from ..telemetry import core as _tm
from .voting import GuardedExecutor, GuardPolicy

__all__ = ["run_guarded_injection", "run_guarded_campaign",
           "aggregate_guarded", "render_guarded_text", "GUARD_STATUSES"]

GUARD_STATUSES = ("clean", "corrected", "uncorrectable")


def _policy_for(site: FaultSite, policy: GuardPolicy) -> GuardPolicy:
    """Operand (bus) sites always run at least DMR: consistent-but-wrong
    inputs pass every unit-level residue check, so redundancy with
    re-fetch is the only detector with reach there."""
    if site.kind == "operand" and policy.mode == "residue":
        return GuardPolicy(mode="dmr",
                           max_executions=max(policy.max_executions, 4),
                           quorum=policy.quorum, workers=policy.workers,
                           timeout_s=policy.timeout_s)
    return policy


def _value_verdict(site: FaultSite, golden, value) -> tuple[bool, bool]:
    """``(exact, user_visible)`` for a value the guard released.

    ``exact`` -- bit-identical to the uninjected oracle.
    ``user_visible`` -- the IEEE-converted value the caller would
    consume differs (representation-absorbed differences are not
    user-visible corruption, matching the baseline's ``masked``
    classification).
    """
    if value == golden:
        return True, False
    if site.site_class == "batch":
        from ..batch.cskernel import kernel_for

        kernel = kernel_for(_scalar_unit(site.unit))
        try:
            golden, value = kernel.lower(golden), kernel.lower(value)
        except Exception:
            # the released tuple violates the operand format; the format
            # boundary rejects it downstream -- detected, not silent
            return False, False
    if _same_cs(golden, value):
        return True, False
    return False, not _same_ieee(cs_to_ieee(golden), cs_to_ieee(value))


def _guard_record(outcome, site: FaultSite, golden) -> dict:
    """Fold a :class:`GuardedOutcome` into the campaign's guard record."""
    flagged = outcome.flagged > 0 or any(
        "error" in r for r in outcome.records)
    if outcome.status == "uncorrectable":
        return {"status": "uncorrectable", "flagged": flagged,
                "executions": outcome.executions,
                "corrected_exact": False, "sdc_to_user": False}
    exact, visible = _value_verdict(site, golden, outcome.value)
    return {"status": outcome.status, "flagged": flagged,
            "executions": outcome.executions,
            "corrected_exact": outcome.status == "corrected" and exact,
            "sdc_to_user": visible}


def _guard_data(config: CampaignConfig, site: FaultSite, inj: dict,
                policy: GuardPolicy) -> dict:
    params = params_for_unit(site.unit)
    triple = _pool(config.seed, site.unit, config.operands)[inj["operand"]]
    arm = Arm(make_transform(site, tuple(inj["fracs"]), params))
    if site.site_class == "batch":
        golden = _golden_batch(config, site.unit, inj["operand"])
        kernel, at, bt, ct = _batch_inputs(site.unit, triple)

        def work(execution: int):
            return kernel.fma(at, bt, ct)
    else:
        golden = _golden_scalar(config, site.unit, inj["operand"])
        a, b, c = _scalar_operands(site.unit, triple)
        unit = _scalar_unit(site.unit)

        def work(execution: int):
            return unit.fma(a, b, c)

    # the probes stay armed across every execution: the Arm fires at its
    # occurrence exactly once, so re-executions see the clean datapath
    # (the transient-upset contract)
    with armed({site.tag: arm}):
        outcome = GuardedExecutor(policy).run(work)
    return _guard_record(outcome, site, golden)


def _guard_operand(config: CampaignConfig, site: FaultSite, inj: dict,
                   policy: GuardPolicy) -> dict:
    params = params_for_unit(site.unit)
    triple = _pool(config.seed, site.unit, config.operands)[inj["operand"]]
    golden = _golden_scalar(config, site.unit, inj["operand"])
    a, b, c = _scalar_operands(site.unit, triple)
    mask = (1 << (params.operand_bits + 2)) - 1
    w = flip_word(mask, tuple(inj["fracs"]))
    corrupt_a = inj["operand"] % 2 == 0
    try:
        faulted = CSFloat.unpack((a if corrupt_a else c).pack() ^ w,
                                 params)
    except Exception:
        # invalid operand word: the format's validity check rejects it
        # before execution -- detected at the bus boundary
        return {"status": "uncorrectable", "flagged": True,
                "executions": 0, "corrected_exact": False,
                "sdc_to_user": False}
    unit = _scalar_unit(site.unit)

    def work(execution: int):
        # a transient bus upset corrupts one fetch; re-executions
        # re-read the operand from its source register
        if execution == 0:
            return unit.fma(faulted if corrupt_a else a, b,
                            c if corrupt_a else faulted)
        return unit.fma(a, b, c)

    outcome = GuardedExecutor(_policy_for(site, policy)).run(work)
    return _guard_record(outcome, site, golden)


def _guard_structural(base: dict) -> dict:
    """Structural artifacts are pure functions of their specs, so the
    guard's duplicate-and-compare re-derivation catches every baseline
    outcome that changed the artifact (``bit_diff``) and rebuilds it."""
    if base["outcome"] == "masked" and not base["bit_diff"]:
        return {"status": "clean", "flagged": False, "executions": 1,
                "corrected_exact": False, "sdc_to_user": False}
    return {"status": "corrected",
            "flagged": True, "executions": 2,
            "corrected_exact": True, "sdc_to_user": False}


def run_guarded_injection(config: CampaignConfig, site: FaultSite,
                          inj: dict, policy: GuardPolicy) -> dict:
    """Baseline record plus the guarded verdict for one injection."""
    base = run_injection(config, site, inj)
    if site.kind == "data":
        guard = _guard_data(config, site, inj, policy)
    elif site.kind == "operand":
        guard = _guard_operand(config, site, inj, policy)
    else:
        guard = _guard_structural(base)
    rec = dict(base)
    rec["guard"] = guard
    return rec


def _policy_dict(policy: GuardPolicy) -> dict:
    return asdict(policy)


def _guarded_entry(payload: dict) -> list[dict]:
    """Picklable work unit: one contiguous plan slice, guarded."""
    config = CampaignConfig.from_dict(payload["config"])
    policy = GuardPolicy(**payload["policy"])
    plan = plan_injections(config)
    from ..faults.sites import SITES

    return [run_guarded_injection(config, SITES[inj["site"]], inj, policy)
            for inj in plan[payload["lo"]:payload["hi"]]]


def run_guarded_campaign(config: CampaignConfig,
                         policy: GuardPolicy | None = None, *,
                         workers: int = 1, chunk: int = 50,
                         timeout_s: float | None = 120.0,
                         max_attempts: int = 3) -> dict:
    """Run the detection-coverage campaign and aggregate the report.

    Serial by default; ``workers > 1`` fans contiguous plan slices
    through :func:`~repro.faults.resilient.run_resilient` and merges by
    injection id, exactly like the baseline campaign -- the report is
    byte-identical to the serial run's.
    """
    policy = policy if policy is not None else GuardPolicy()
    plan = plan_injections(config)
    sites = select_sites(config.sites, config.classes)
    done: dict[int, dict] = {}

    def emit(rec: dict) -> None:
        done[rec["id"]] = rec

    resilience = _fan_out(
        _guarded_entry,
        {"config": config.to_dict(), "policy": _policy_dict(policy)}, plan,
        lambda inj: run_guarded_injection(config, _site_of(sites, inj),
                                          inj, policy),
        emit, seed=config.seed, workers=workers, chunk=chunk,
        timeout_s=timeout_s, max_attempts=max_attempts)
    records = [done[i] for i in sorted(done)]
    report = aggregate_guarded(config, policy, records, sites)
    if resilience is not None:
        report["resilience"] = resilience
    t = _tm.ACTIVE
    if t is not None:
        t.count("guard.campaigns")
        for rec in records:
            t.count(f"guard.campaign.{rec['guard']['status']}")
    return report


# ---------------------------------------------------------------------------
# aggregation


def _bucket() -> dict:
    return {"injections": 0, "baseline_sdc": 0, "clean": 0, "corrected": 0,
            "corrected_exact": 0, "uncorrectable": 0, "flagged": 0,
            "sdc_to_user": 0, "executions": 0}


def _feed(bucket: dict, rec: dict) -> None:
    g = rec["guard"]
    bucket["injections"] += 1
    bucket["baseline_sdc"] += 1 if rec["outcome"] == "sdc" else 0
    bucket[g["status"]] += 1
    bucket["corrected_exact"] += 1 if g["corrected_exact"] else 0
    bucket["flagged"] += 1 if g["flagged"] else 0
    bucket["sdc_to_user"] += 1 if g["sdc_to_user"] else 0
    bucket["executions"] += g["executions"]


def _rates(bucket: dict) -> dict:
    n = bucket["injections"]
    bucket["baseline_sdc_rate"] = (round(bucket["baseline_sdc"] / n, 4)
                                   if n else 0.0)
    bucket["guarded_sdc_rate"] = (round(bucket["sdc_to_user"] / n, 4)
                                  if n else 0.0)
    return bucket


def aggregate_guarded(config: CampaignConfig, policy: GuardPolicy,
                      records: list[dict],
                      sites: list[FaultSite]) -> dict:
    """Deterministic detection-coverage report (sorted, no timestamps)."""
    totals = _bucket()
    by_class: dict[str, dict] = {}
    by_site: dict[str, dict] = {}
    site_meta = {s.name: s for s in sites}
    for rec in records:
        _feed(totals, rec)
        _feed(by_class.setdefault(rec["class"], _bucket()), rec)
        _feed(by_site.setdefault(rec["site"], _bucket()), rec)
    site_table = {}
    for name in sorted(by_site):
        entry = _rates(by_site[name])
        meta = site_meta.get(name)
        if meta is not None:
            entry["class"] = meta.site_class
            entry["stage"] = meta.stage
        site_table[name] = entry
    b, g = totals["baseline_sdc"], totals["sdc_to_user"]
    return {
        "config": config.to_dict(),
        "policy": _policy_dict(policy),
        "totals": _rates(totals),
        "classes": {c: _rates(by_class[c]) for c in SITE_CLASSES
                    if c in by_class},
        "sites": site_table,
        "coverage": {
            "baseline_sdc": b,
            "guarded_sdc": g,
            # None = no SDC survived the guard (unbounded reduction)
            "reduction_factor": (round(b / g, 2) if g else None),
        },
    }


def render_guarded_text(report: dict) -> str:
    """Human-readable detection-coverage summary."""
    t = report["totals"]
    cov = report["coverage"]
    red = cov["reduction_factor"]
    rows = [
        f"guarded SEU campaign: {t['injections']} injections "
        f"(seed {report['config']['seed']}, "
        f"mode {report['policy']['mode']})",
        f"  clean          {t['clean']:>6}",
        f"  corrected      {t['corrected']:>6}   "
        f"(bit-identical to oracle: {t['corrected_exact']})",
        f"  uncorrectable  {t['uncorrectable']:>6}   (rejected, never "
        f"returned as data)",
        f"  SDC to user    {t['sdc_to_user']:>6}   vs baseline "
        f"{t['baseline_sdc']}  "
        + (f"({red}x reduction)" if red is not None
           else "(no surviving SDC)"),
        f"  executions     {t['executions']:>6}",
        "",
        "site class    inject  base-sdc  corrected  rejected  user-sdc",
        "----------    ------  --------  ---------  --------  --------",
    ]
    for cls, b in report["classes"].items():
        rows.append(f"{cls:<12}  {b['injections']:>6}  "
                    f"{b['baseline_sdc']:>8}  {b['corrected']:>9}  "
                    f"{b['uncorrectable']:>8}  {b['sdc_to_user']:>8}")
    rows.append("")
    rows.append("per-site coverage (baseline sdc -> guarded user-sdc):")
    for name, b in report["sites"].items():
        rows.append(f"  {name:<26} {b['injections']:>5} inj  "
                    f"{b['baseline_sdc']:>4} -> {b['sdc_to_user']:>4}  "
                    f"corrected {b['corrected']:>4}")
    res = report.get("resilience")
    if res:
        rows.append("")
        rows.append(f"resilience: {res['retries']} retries, "
                    f"{res['timeouts']} timeouts, "
                    f"{res['pool_respawns']} pool respawns"
                    + (", serial fallback" if res["serial_fallback"]
                       else ""))
    return "\n".join(rows)
