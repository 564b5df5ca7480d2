//! Fault injection: drive the pipeline into its guard rails at
//! seed-derived points and assert the abort contract.
//!
//! A [`FaultPlan`] is derived deterministically from the case seed: it
//! picks one abort *site* (the eval binding loop, the exchange insert
//! stage, the wall-clock deadline, a parallel worker cancelled through the
//! journal trip hook, or the §7.3 translator/metastore path) and a trip
//! point scaled to the unguarded run's own progress counters, so roughly
//! half the cases actually trip and the other half prove the guard is
//! inert when not exhausted.
//!
//! The laws asserted for every case:
//!
//! 1. **Abort or complete, never corrupt.** A guarded run either completes
//!    with output byte-identical to the unguarded reference, or returns a
//!    structured guard error. Any other error fails the case.
//! 2. **Consistent prefix.** An aborted exchange leaves a PNF-valid target
//!    holding exactly the completed mappings: byte-identical to an
//!    unguarded exchange of that mapping prefix (empty prefix ⇒ empty
//!    target), with every completed mapping satisfied.
//! 3. **Lifted budget ⇒ exact replay.** Re-running with the budget lifted
//!    after an abort reproduces the unguarded reference byte-for-byte.
//! 4. **Generous budget ⇒ inert.** A budget far above the workload (1 h
//!    deadline, huge row/binding/byte caps) changes nothing, byte-for-byte.

use crate::generators::{self, GenConfig, Scenario};
use crate::laws::canon;
use dtr_core::runner::MetaRunner;
use dtr_mapping::exchange::{Exchange, ExchangeError, ExchangeOptions, ExchangeReport};
use dtr_mapping::satisfy::is_satisfied;
use dtr_model::instance::Instance;
use dtr_model::pnf::is_pnf;
use dtr_model::schema::Schema;
use dtr_obs::guard::{Budget, GuardError};
use dtr_query::eval::Source;
use dtr_query::functions::FunctionRegistry;
use dtr_xml::writer::{instance_to_xml, WriteOptions};
use proptest::test_runner::TestRng;
use std::time::Duration;

/// Which guard rail a fault case aims at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// `max_bindings` in the foreach binding-enumeration loop.
    EvalBindings,
    /// `max_rows` in the exchange insert stage (mid-mapping rollback).
    ExchangeRows,
    /// A zero wall-clock deadline (trips before any insert).
    Deadline,
    /// Cooperative cancellation raised at the Nth journaled event while
    /// the exchange runs on parallel workers.
    ParallelCancel,
    /// The §7.3 path: metastore encoding and translated execution.
    Translate,
}

impl FaultSite {
    /// Stable name for reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::EvalBindings => "eval_bindings",
            FaultSite::ExchangeRows => "exchange_rows",
            FaultSite::Deadline => "deadline",
            FaultSite::ParallelCancel => "parallel_cancel",
            FaultSite::Translate => "translate",
        }
    }
}

/// The deterministic fault a seed injects: a site plus a raw trip value
/// that each site scales to its own progress range.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// The guard rail under test.
    pub site: FaultSite,
    /// Seed-derived entropy for the trip point (site-scaled).
    pub mix: u64,
}

/// Derives the fault plan for a seed. Pure: the same seed always plans the
/// same fault, so every failure reproduces with `--faults --seed <s>`.
pub fn plan_for(seed: u64) -> FaultPlan {
    let site = match seed % 5 {
        0 => FaultSite::EvalBindings,
        1 => FaultSite::ExchangeRows,
        2 => FaultSite::Deadline,
        3 => FaultSite::ParallelCancel,
        _ => FaultSite::Translate,
    };
    // SplitMix-style scramble decorrelates the trip point from the low
    // bits that picked the site.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    FaultPlan {
        site,
        mix: z ^ (z >> 31),
    }
}

/// What a fault case did — reported by the soak binary.
#[derive(Clone, Copy, Debug)]
pub struct FaultOutcome {
    /// The site the plan aimed at.
    pub site: FaultSite,
    /// Whether the injected fault actually tripped a guard (cases whose
    /// trip point lands beyond the run's progress complete normally and
    /// double as inertness checks).
    pub tripped: bool,
}

/// Fault cases mutate process-global journal state (the enabled flag, the
/// armed trip, the event counter), so concurrent cases — e.g. `cargo
/// test`'s parallel test threads — must not overlap.
static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Restores global journal state (enabled flag, armed trip) on all exit
/// paths of a fault case.
struct JournalRestore {
    was_enabled: bool,
}

impl Drop for JournalRestore {
    fn drop(&mut self) {
        dtr_obs::journal::disarm_trip();
        dtr_obs::journal::set_enabled(self.was_enabled);
    }
}

/// A budget no generated scenario can exhaust (law 4's "generous" bound).
fn generous_budget() -> Budget {
    Budget {
        max_bindings: Some(u64::MAX / 2),
        max_rows: Some(u64::MAX / 2),
        max_result_bytes: Some(u64::MAX / 2),
        deadline: Some(Duration::from_secs(3600)),
        ..Budget::default()
    }
}

/// Element-annotated copies of the scenario's sources (what
/// `TaggedInstance::exchange` does before running the engine).
fn annotated_sources(scen: &Scenario) -> Result<Vec<(Schema, Instance)>, String> {
    scen.sources
        .iter()
        .map(|(s, i)| {
            let mut inst = i.clone();
            inst.annotate_elements(s)
                .map_err(|e| format!("source annotation failed: {e}"))?;
            Ok((s.clone(), inst))
        })
        .collect()
}

/// What a guarded engine run produced: the (possibly prefix) instance and
/// report, plus the guard error and completed-mapping count if it aborted.
type EngineRun = (Instance, ExchangeReport, Option<(GuardError, usize)>);

/// Runs the exchange engine, separating a guard abort (returned as data,
/// with the consistent-prefix instance still produced by `finish`) from
/// any other error (a failed case).
fn run_engine(
    sources: &[(Schema, Instance)],
    target: &Schema,
    mappings: &[dtr_mapping::glav::Mapping],
    functions: &FunctionRegistry,
    opts: &ExchangeOptions,
) -> Result<EngineRun, String> {
    let srcs: Vec<Source<'_>> = sources
        .iter()
        .map(|(schema, instance)| Source { schema, instance })
        .collect();
    let mut engine = Exchange::new(srcs, target, functions);
    let abort = match engine.run_mappings(mappings, opts) {
        Ok(()) => None,
        Err(ExchangeError::Guard {
            error,
            mappings_completed,
        }) => Some((error, mappings_completed)),
        Err(other) => {
            return Err(format!(
                "guarded exchange failed with a non-guard error: {other}"
            ))
        }
    };
    let (inst, report) = engine
        .finish()
        .map_err(|e| format!("finish after guard abort failed: {e}"))?;
    Ok((inst, report, abort))
}

/// Canonical byte rendering for "bit-for-bit" comparisons: the annotated
/// XML serialization (deterministic node order, annotations included).
fn bytes_of(inst: &Instance) -> String {
    instance_to_xml(inst, WriteOptions::annotated())
}

/// Laws 2: the aborted target is PNF-valid and byte-identical to an
/// unguarded exchange of exactly the completed mapping prefix, and every
/// completed mapping is satisfied.
fn check_prefix(
    inst: &Instance,
    completed: usize,
    sources: &[(Schema, Instance)],
    scen: &Scenario,
    functions: &FunctionRegistry,
) -> Result<(), String> {
    if !is_pnf(inst) {
        return Err(format!(
            "aborted target (after {completed} mappings) is not in PNF"
        ));
    }
    let prefix = &scen.mappings[..completed];
    let (expected, _, abort) = run_engine(
        sources,
        &scen.target,
        prefix,
        functions,
        &ExchangeOptions::default(),
    )?;
    if abort.is_some() {
        return Err("unguarded prefix exchange tripped a guard".into());
    }
    if bytes_of(inst) != bytes_of(&expected) {
        return Err(format!(
            "aborted target is not the consistent prefix of {completed} mapping(s)\n\
             aborted: {}\nexpected: {}",
            canon(inst),
            canon(&expected)
        ));
    }
    let srcs: Vec<Source<'_>> = sources
        .iter()
        .map(|(schema, instance)| Source { schema, instance })
        .collect();
    for m in prefix {
        let target = Source {
            schema: &scen.target,
            instance: inst,
        };
        let sat = is_satisfied(m, &srcs, target, functions)
            .map_err(|e| format!("satisfaction check failed on aborted prefix: {e}"))?;
        if !sat {
            return Err(format!(
                "completed mapping `{}` is not satisfied by the aborted prefix",
                m.name
            ));
        }
    }
    Ok(())
}

/// One fault-injection case: generate the scenario for `seed`, inject the
/// planned fault, and assert the four abort-contract laws. Returns what
/// happened so the soak can report trip coverage.
pub fn run_case_faults(seed: u64, cfg: &GenConfig) -> Result<FaultOutcome, String> {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let plan = plan_for(seed);
    let mut rng = TestRng::from_seed(seed);
    let scen = generators::gen_scenario(&mut rng, cfg);
    let functions = FunctionRegistry::with_builtins();
    let sources = annotated_sources(&scen)?;

    // The journal is on for every fault case: the parallel-cancel site
    // needs its event counter, and running the other sites under capture
    // doubles as a journaling-interference check.
    let _restore = JournalRestore {
        was_enabled: dtr_obs::journal::enabled(),
    };
    dtr_obs::journal::set_enabled(true);
    dtr_obs::journal::reset();

    // Unguarded reference (laws 1/3/4 compare against this, byte-for-byte).
    let (ref_inst, ref_report, abort) = run_engine(
        &sources,
        &scen.target,
        &scen.mappings,
        &functions,
        &ExchangeOptions::default(),
    )?;
    if abort.is_some() {
        return Err("unguarded reference exchange tripped a guard".into());
    }
    let ref_bytes = bytes_of(&ref_inst);
    let ref_events = dtr_obs::journal::next_event_id();

    if plan.site == FaultSite::Translate {
        let tripped = check_translate_site(&scen, plan.mix)?;
        return Ok(FaultOutcome {
            site: plan.site,
            tripped,
        });
    }

    // Scale the trip point to the reference run's own progress so the
    // fault fires inside the run for roughly half the seeds (+2 keeps the
    // modulus nonzero and draws the beyond-the-end inert case too).
    let total_rows: u64 = ref_report.per_mapping.iter().map(|s| s.tuples as u64).sum();
    let max_bindings: u64 = ref_report
        .per_mapping
        .iter()
        .map(|s| s.bindings as u64)
        .max()
        .unwrap_or(0);
    let mut opts = ExchangeOptions::default();
    match plan.site {
        FaultSite::EvalBindings => {
            opts.budget.max_bindings = Some(plan.mix % (max_bindings + 2));
        }
        FaultSite::ExchangeRows => {
            opts.budget.max_rows = Some(plan.mix % (total_rows + 2));
        }
        FaultSite::Deadline => {
            opts.budget.deadline = Some(Duration::ZERO);
        }
        FaultSite::ParallelCancel => {
            opts.parallel = true;
            opts.workers = 2;
            if plan.mix % 2 == 1 {
                // Pre-set cancellation: every meter checks the flag on its
                // first poll, so any worker's first eval poll (or the
                // insert stage's first row charge) observes it — the abort
                // is deterministic on any scenario that does work.
                opts.budget.request_cancel();
            } else {
                // Mid-run cancellation raised by the journal trip hook at a
                // seed-derived event. Whether a meter re-polls after the
                // flag rises depends on poll strides and worker scheduling,
                // so this arm may legitimately complete — the laws below
                // accept either outcome.
                dtr_obs::journal::reset();
                dtr_obs::journal::arm_trip(
                    plan.mix % (ref_events + 2),
                    std::sync::Arc::clone(&opts.budget.cancel),
                );
            }
        }
        FaultSite::Translate => unreachable!("handled above"),
    }

    // Law 1: abort or byte-identical completion, never anything else.
    let (inst, _, abort) = run_engine(&sources, &scen.target, &scen.mappings, &functions, &opts)?;
    dtr_obs::journal::disarm_trip();
    let tripped = match abort {
        Some((guard, completed)) => {
            if plan.site == FaultSite::Deadline && completed != 0 {
                return Err(format!(
                    "a zero deadline completed {completed} mapping(s) before aborting"
                ));
            }
            check_prefix(&inst, completed, &sources, &scen, &functions)?;
            // The structured error names a real resource and stage.
            if guard.stage.is_empty() || guard.resource.name().is_empty() {
                return Err(format!("guard error lacks stage/resource: {guard}"));
            }
            true
        }
        None => {
            if bytes_of(&inst) != ref_bytes {
                return Err(format!(
                    "un-tripped guarded run diverged from the unguarded reference \
                     (site {})",
                    plan.site.name()
                ));
            }
            false
        }
    };

    // Law 3: lifting the budget reproduces the reference exactly.
    let (again, _, abort) = run_engine(
        &sources,
        &scen.target,
        &scen.mappings,
        &functions,
        &ExchangeOptions::default(),
    )?;
    if abort.is_some() {
        return Err("budget-lifted rerun tripped a guard".into());
    }
    if bytes_of(&again) != ref_bytes {
        return Err("budget-lifted rerun does not reproduce the unguarded result".into());
    }

    // Law 4: a generous budget is inert, byte-for-byte.
    let generous = ExchangeOptions {
        budget: generous_budget(),
        ..ExchangeOptions::default()
    };
    let (inert, _, abort) = run_engine(
        &sources,
        &scen.target,
        &scen.mappings,
        &functions,
        &generous,
    )?;
    if abort.is_some() {
        return Err("generous budget tripped a guard".into());
    }
    if bytes_of(&inert) != ref_bytes {
        return Err("generous budget changed the exchange output".into());
    }

    Ok(FaultOutcome {
        site: plan.site,
        tripped,
    })
}

/// The translator/metastore site: budget the §7.1 encoding and the §7.3
/// translated execution of a generated MXQL query, asserting the same
/// abort-or-identical contract against the unbudgeted runner.
fn check_translate_site(scen: &Scenario, mix: u64) -> Result<bool, String> {
    let tagged = scen
        .tagged()
        .map_err(|e| format!("exchange failed building the tagged instance: {e}"))?;
    let runner =
        MetaRunner::new(tagged.setting()).map_err(|e| format!("metastore build failed: {e}"))?;
    let mut rng = TestRng::from_seed(mix);
    let cfg = GenConfig::default();
    let q = generators::gen_mxql_query(&mut rng, scen, &cfg);
    let reference = runner
        .run(&tagged, &q, None)
        .map_err(|e| format!("unbudgeted translated run failed on `{q}`: {e}"))?;
    let mut ref_rows: Vec<String> = reference
        .tuples()
        .iter()
        .map(|t| {
            t.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\u{1}")
        })
        .collect();
    ref_rows.sort();

    // Budget the metastore encoding: `max_rows` scaled to the store size.
    let store = runner.store();
    let store_rows = (store.elements.len()
        + store.bindings.len()
        + store.conditions.len()
        + store.correspondences.len()) as u64;
    let build_budget = Budget {
        max_rows: Some(mix % (store_rows + 2)),
        ..Budget::default()
    };
    let mut tripped = false;
    match MetaRunner::new_budgeted(tagged.setting(), &build_budget) {
        Ok(_) => {}
        Err(e) => match e.guard() {
            Some(_) => tripped = true,
            None => {
                return Err(format!(
                    "budgeted metastore build failed non-structurally: {e}"
                ))
            }
        },
    }

    // Budget the translated execution: `max_rows` scaled to the result.
    let run_budget = Budget {
        max_rows: Some(mix % (ref_rows.len() as u64 + 2)),
        ..Budget::default()
    };
    match runner.run(&tagged, &q, Some(&run_budget)) {
        Ok(r) => {
            let mut rows: Vec<String> = r
                .tuples()
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("\u{1}")
                })
                .collect();
            rows.sort();
            if rows != ref_rows {
                return Err(format!(
                    "un-tripped budgeted translated run diverged on `{q}`"
                ));
            }
        }
        Err(e) => match e.guard() {
            Some(_) => tripped = true,
            None => {
                return Err(format!(
                    "budgeted translated run failed non-structurally on `{q}`: {e}"
                ))
            }
        },
    }

    // Lifted + generous budgets reproduce the reference rows exactly.
    for budget in [Budget::unlimited(), generous_budget()] {
        let r = runner
            .run(&tagged, &q, Some(&budget))
            .map_err(|e| format!("lifted/generous translated rerun failed on `{q}`: {e}"))?;
        let mut rows: Vec<String> = r
            .tuples()
            .iter()
            .map(|t| {
                t.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\u{1}")
            })
            .collect();
        rows.sort();
        if rows != ref_rows {
            return Err(format!(
                "lifted/generous translated rerun diverged on `{q}`"
            ));
        }
    }
    Ok(tripped)
}
