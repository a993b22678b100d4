//! The suite layer: many [`RunSpec`]s executed as one deterministic job.
//!
//! A [`SuiteSpec`] manifest (`imcis.suitespec/1`) lists members — run
//! specs embedded inline or referenced by file, or multi-stage
//! [`CampaignSpec`]s ([`SuiteMember`]) — plus a global thread budget
//! and an optional shared seed base. [`Suite::from_spec`] resolves every
//! member scenario through one [`SetupCache`], so N sessions against the
//! same `(scenario, params)` pair build the expensive [`Setup`] exactly
//! once and share it behind an [`Arc`] (scenario build dominates for the
//! 40320-state `repair` model and the learned `swat` models). [`Suite::run`]
//! then fans whole sessions over [`std::thread::scope`] workers and folds
//! the per-member [`MemberOutcome`]s, in manifest order, into a
//! [`SuiteReport`] (`imcis.suitereport/2`; `/3` when a campaign member
//! is present) with a cross-run summary table.
//!
//! # Campaigns
//!
//! A `campaign` member runs one run spec as an ordered sequence of
//! estimation *stages* over the same cached [`Setup`]: each stage is a
//! full session under the stage's fixed change of measure, and between
//! stages the method's [`StageEstimator`](crate::session::StageEstimator)
//! state advances from the previous stage's raw outcomes (the
//! cross-entropy and Dupuis–Wang methods refine their biased chain; the
//! classic one-shot methods behave as single-stage campaigns). Stage
//! `s` of a campaign seeded `seed` runs with session seed
//! [`stream_seed`]`(seed, 2·s)` and advances with update seed
//! [`stream_seed`]`(seed, 2·s + 1)`, so the whole campaign is a pure
//! function of its manifest at every thread budget. A stopping rule —
//! `stages` (the maximum) plus an optional `target_rel_width` on the
//! stage estimate's confidence interval — decides when to stop early;
//! the converged stage index is recorded in the report. Supervision
//! (fault injection, deadlines, cancellation) applies at *stage*
//! boundaries: a failing stage ends the campaign with a typed per-stage
//! entry, and earlier stages keep their reports.
//!
//! # Supervision
//!
//! Member sessions run under [`std::panic::catch_unwind`]: a panicking
//! or erroring member never takes the suite (or a serving worker) down
//! with it — it becomes a typed, manifest-ordered member entry in the
//! report (`status` of `error` / `panic` / `timeout` / `cancelled`),
//! and every other member's report is byte-identical to a clean run.
//! The deterministic fault-injection layer ([`crate::fault`], the
//! optional `fault` manifest block, gated behind
//! `IMCIS_FAULT_INJECTION=1`) exists to prove exactly that.
//!
//! # Determinism contract
//!
//! A suite result is a pure function of its manifest:
//!
//! * every member session is seed-deterministic and thread-count
//!   invariant, and the suite scheduler assigns results by member index
//!   (never by completion order), so [`SuiteReport::to_json_stable`] is
//!   **byte-identical at every suite thread budget**;
//! * a member's report is **bit-identical to running that spec through
//!   its own [`Session`]** — sharing a cached `Setup` changes where the
//!   models live, not what they are;
//! * the optional `seed_base` rewrites member seeds with the same
//!   splitmix64 stream derivation the per-trace streams use (member `i`
//!   gets [`stream_seed`]`(seed_base, i)` — a Weyl step through the full
//!   avalanche finaliser, so no (member, repetition) pair of RNG streams
//!   can alias), applied at parse time and — idempotently — when a suite
//!   is built ([`SuiteSpec::normalized`]), so the echoed specs always
//!   show their effective seeds;
//! * `timing` remains the only volatile field, omitted by
//!   [`SuiteReport::to_json_stable`] exactly as [`Report::to_json_stable`]
//!   omits it.
//!
//! # Example
//!
//! ```
//! use imcis_core::{Suite, SuiteSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two members, one scenario: the illustrative setup is built once
//! // and shared; the report embeds both members in manifest order.
//! let spec: SuiteSpec = r#"{
//!         "runs": [
//!             {"scenario": {"name": "illustrative"},
//!              "method": {"name": "smc", "n_traces": 250}, "seed": 1},
//!             {"scenario": {"name": "illustrative"},
//!              "method": {"name": "standard-is", "n_traces": 250}, "seed": 2}
//!         ],
//!         "threads": 1
//!     }"#
//!     .parse()?;
//! let suite = Suite::from_spec(spec)?;
//! assert_eq!(suite.unique_setups(), 1);
//! let report = suite.run()?;
//! assert_eq!(report.members.len(), 2);
//! // The stable form is byte-identical at every thread budget.
//! assert_eq!(
//!     report.to_json_stable().pretty(),
//!     suite.run_with_threads(8)?.to_json_stable().pretty(),
//! );
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imc_models::{ScenarioError, ScenarioParams, ScenarioRegistry, Setup};
use imc_sim::stream_seed;
use serde::json::{self, Value};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::{self, FaultKind, FaultPlan};
use crate::report::{ci_json, opt_float, Report, Timing};
use crate::session::{stage_estimator_for, MethodOutcome, Session, SessionError};
use crate::spec::{schema_err, Fields, RunSpec, ScenarioRef, SpecError};

/// Schema tag emitted in every serialized suite spec.
pub const SUITESPEC_SCHEMA: &str = "imcis.suitespec/1";

/// Schema tag emitted in serialized suite reports of run-only suites.
pub const SUITEREPORT_SCHEMA: &str = "imcis.suitereport/2";

/// Schema tag emitted in serialized suite reports of suites with at
/// least one campaign member (run-only suites keep the `/2` bytes).
pub const SUITEREPORT_SCHEMA_V3: &str = "imcis.suitereport/3";

/// A multi-stage campaign over one run spec: the stage sequence, its
/// stopping rule, and the base spec every stage derives from. See the
/// [module docs](self#campaigns) for the stage seed derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The base run spec. Stage `s` runs it with seed
    /// [`stream_seed`]`(run.seed, 2·s)`.
    pub run: RunSpec,
    /// Maximum number of stages (positive; validated).
    pub stages: usize,
    /// Early-stop target: the campaign converges at the first stage
    /// whose report satisfies `(ci.hi − ci.lo) / estimate ≤ target`
    /// (never on a non-positive estimate). `None` = always run all
    /// `stages` stages.
    pub target_rel_width: Option<f64>,
}

impl CampaignSpec {
    /// A campaign of at most `stages` stages with no early-stop target.
    pub fn new(run: RunSpec, stages: usize) -> Self {
        CampaignSpec {
            run,
            stages,
            target_rel_width: None,
        }
    }

    /// Sets the early-stop relative-CI-width target.
    pub fn with_target_rel_width(mut self, target: f64) -> Self {
        self.target_rel_width = Some(target);
        self
    }

    /// Whether `report` satisfies the early-stop rule.
    pub fn converged(&self, report: &Report) -> bool {
        let Some(target) = self.target_rel_width else {
            return false;
        };
        if report.estimate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return false;
        }
        (report.ci.hi() - report.ci.lo()) / report.estimate <= target
    }

    /// Parses the inner object of a `{"campaign": …}` suite member.
    ///
    /// # Errors
    ///
    /// [`SpecError::Schema`] on unknown keys, a missing or non-positive
    /// `stages`, a non-finite or non-positive `target_rel_width`, or any
    /// parse error of the embedded `run` spec (prefixed `campaign.run`).
    pub fn from_json(value: &Value) -> Result<Self, SpecError> {
        let fields = Fields::new(value, "campaign")?;
        fields.allow(&["run", "stages", "target_rel_width"])?;
        let run = RunSpec::from_json(fields.require("run")?).map_err(|e| match e {
            SpecError::Schema(msg) => SpecError::Schema(format!("`campaign.run`: {msg}")),
            SpecError::Json(msg) => SpecError::Json(format!("`campaign.run`: {msg}")),
            SpecError::File(msg) => SpecError::File(msg),
            // A spanned DSL diagnostic stays typed; its line/column point
            // into the source text, which no prefix can improve on.
            SpecError::Dsl(e) => SpecError::Dsl(e),
        })?;
        let stages = fields
            .require("stages")?
            .as_usize()
            .ok_or_else(|| schema_err("`campaign.stages` must be an unsigned integer"))?;
        if stages == 0 {
            return Err(schema_err("`campaign.stages` must be positive"));
        }
        let target_rel_width = match fields.opt("target_rel_width") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let target = v
                    .as_f64()
                    .filter(|t| t.is_finite() && *t > 0.0)
                    .ok_or_else(|| {
                        schema_err("`campaign.target_rel_width` must be a positive finite number")
                    })?;
                Some(target)
            }
        };
        Ok(CampaignSpec {
            run,
            stages,
            target_rel_width,
        })
    }

    /// The canonical JSON form of the inner campaign object (every
    /// field emitted, fixed key order).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("run".into(), self.run.to_json()),
            ("stages".into(), Value::UInt(self.stages as u64)),
            (
                "target_rel_width".into(),
                match self.target_rel_width {
                    Some(target) => Value::Float(target),
                    None => Value::Null,
                },
            ),
        ])
    }
}

/// One suite member: a plain run, or a multi-stage campaign.
///
/// Every member has a base [`RunSpec`] ([`SuiteMember::run_spec`]) — the
/// seed-base rewrite, setup caching, and summary identity columns all go
/// through it, so run members and campaigns share one resolution path.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteMember {
    /// A one-shot session (the classic member form).
    Run(RunSpec),
    /// A multi-stage campaign over one cached setup.
    Campaign(CampaignSpec),
}

impl SuiteMember {
    /// The member's base run spec.
    pub fn run_spec(&self) -> &RunSpec {
        match self {
            SuiteMember::Run(run) => run,
            SuiteMember::Campaign(campaign) => &campaign.run,
        }
    }

    /// The member's base run spec, mutable (seed-base rewrite).
    pub fn run_spec_mut(&mut self) -> &mut RunSpec {
        match self {
            SuiteMember::Run(run) => run,
            SuiteMember::Campaign(campaign) => &mut campaign.run,
        }
    }

    /// The campaign spec, when this member is a campaign.
    pub fn campaign(&self) -> Option<&CampaignSpec> {
        match self {
            SuiteMember::Run(_) => None,
            SuiteMember::Campaign(campaign) => Some(campaign),
        }
    }

    /// `true` when this member is a campaign.
    pub fn is_campaign(&self) -> bool {
        matches!(self, SuiteMember::Campaign(_))
    }

    /// The canonical JSON member form: a run member serializes as its
    /// bare run spec (unchanged from earlier schema versions), a
    /// campaign as `{"campaign": …}`.
    pub fn to_json(&self) -> Value {
        match self {
            SuiteMember::Run(run) => run.to_json(),
            SuiteMember::Campaign(campaign) => {
                Value::object([("campaign".into(), campaign.to_json())])
            }
        }
    }
}

impl From<RunSpec> for SuiteMember {
    fn from(run: RunSpec) -> Self {
        SuiteMember::Run(run)
    }
}

/// The serializable manifest of one suite: members plus scheduling
/// policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteSpec {
    /// Members (runs or campaigns), manifest order. Never empty
    /// (validated).
    pub runs: Vec<SuiteMember>,
    /// Sessions executed concurrently (`0` = all cores; results are
    /// bit-identical at every budget).
    pub threads: usize,
    /// When set, member `i`'s seed is replaced by
    /// [`stream_seed`]`(seed_base, i)` at parse/validation time.
    pub seed_base: Option<u64>,
    /// Optional deterministic fault-injection plan (test harness only;
    /// refused at suite construction unless `IMCIS_FAULT_INJECTION=1`).
    /// Omitted from the canonical form when absent, so fault-free
    /// manifests are unchanged from earlier versions.
    pub fault: Option<FaultPlan>,
}

impl SuiteSpec {
    /// A suite over `runs` with the default thread policy and no seed
    /// rewrite.
    ///
    /// # Errors
    ///
    /// [`SpecError::Schema`] when `runs` is empty — an empty suite has
    /// nothing to report and is rejected up front rather than producing
    /// an empty [`SuiteReport`].
    pub fn new(runs: Vec<RunSpec>) -> Result<Self, SpecError> {
        Self::from_members(runs.into_iter().map(SuiteMember::Run).collect())
    }

    /// A suite over arbitrary members (runs and campaigns) with the
    /// default thread policy and no seed rewrite.
    ///
    /// # Errors
    ///
    /// As for [`SuiteSpec::new`], plus any [`SuiteSpec::validate`]
    /// violation of a campaign member.
    pub fn from_members(members: Vec<SuiteMember>) -> Result<Self, SpecError> {
        let spec = SuiteSpec {
            runs: members,
            threads: 0,
            seed_base: None,
            fault: None,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// `true` when at least one member is a campaign (the suite report
    /// then carries the `imcis.suitereport/3` schema tag).
    pub fn has_campaigns(&self) -> bool {
        self.runs.iter().any(SuiteMember::is_campaign)
    }

    /// Replaces the suite thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a fault-injection plan (test harness only — running the
    /// suite still requires `IMCIS_FAULT_INJECTION=1`).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Applies the `seed_base` rewrite: when set, member `i`'s seed
    /// becomes [`stream_seed`]`(seed_base, i)` — a Weyl step through the
    /// full splitmix64 finaliser, the exact per-stream derivation
    /// `BatchRunner` uses — regardless of the seed the member carried.
    /// Idempotent — the rewrite is a pure function of
    /// `(seed_base, index)`.
    ///
    /// The finaliser matters: members then derive *repetition* seeds by
    /// the linear `seed + k·φ` step, so bare `seed_base + i·φ` member
    /// seeds would make member `i` repetition `k` collide with member
    /// `j` repetition `l` whenever `i + k == j + l`. The avalanche mix
    /// breaks that linearity, keeping every (member, repetition) stream
    /// distinct.
    ///
    /// The JSON parser and [`Suite::from_spec_with`] both normalise, so
    /// a programmatically assembled spec with `seed_base` set runs with
    /// exactly the seeds its serialized echo claims.
    pub fn normalized(mut self) -> Self {
        if let Some(base_seed) = self.seed_base {
            for (i, member) in self.runs.iter_mut().enumerate() {
                member.run_spec_mut().seed = stream_seed(base_seed, i as u64);
            }
        }
        self
    }

    /// Checks the structural invariants a well-formed suite obeys.
    ///
    /// # Errors
    ///
    /// [`SpecError::Schema`] on an empty member list, a member with
    /// zero repetitions or a campaign with zero stages (all would
    /// otherwise surface only as a broken report much later), or a
    /// fault injection targeting a member index the suite does not
    /// have — or a stage of a member that is not a campaign.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.runs.is_empty() {
            return Err(schema_err(
                "`suite.runs` must contain at least one run (an empty suite has no report)",
            ));
        }
        for (i, member) in self.runs.iter().enumerate() {
            if member.run_spec().repetitions == 0 {
                return Err(schema_err(format!(
                    "`suite.runs[{i}].repetitions` must be positive"
                )));
            }
            if let Some(campaign) = member.campaign() {
                if campaign.stages == 0 {
                    return Err(schema_err(format!(
                        "`suite.runs[{i}].campaign.stages` must be positive"
                    )));
                }
                if let Some(target) = campaign.target_rel_width {
                    if !(target.is_finite() && target > 0.0) {
                        return Err(schema_err(format!(
                            "`suite.runs[{i}].campaign.target_rel_width` \
                             must be a positive finite number"
                        )));
                    }
                }
            }
        }
        if let Some(plan) = &self.fault {
            for (i, rule) in plan.injections.iter().enumerate() {
                if rule.member >= self.runs.len() {
                    return Err(schema_err(format!(
                        "`suite.fault.injections[{i}]` targets member {} \
                         but the suite has {} members",
                        rule.member,
                        self.runs.len()
                    )));
                }
                if let Some(stage) = rule.stage {
                    match self.runs[rule.member].campaign() {
                        None => {
                            return Err(schema_err(format!(
                                "`suite.fault.injections[{i}]` has a `stage` \
                                 but member {} is not a campaign",
                                rule.member
                            )));
                        }
                        Some(campaign) if stage >= campaign.stages => {
                            return Err(schema_err(format!(
                                "`suite.fault.injections[{i}]` targets stage {stage} \
                                 but member {} has {} stages",
                                rule.member, campaign.stages
                            )));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        Ok(())
    }

    /// Parses an already-decoded JSON value. File-referenced members
    /// (`{"file": "spec.json"}`) resolve relative to `base` (the suite
    /// manifest's directory; `None` = the current directory).
    ///
    /// # Errors
    ///
    /// [`SpecError::Schema`] on schema violations (including an empty
    /// `runs` list), [`SpecError::File`] when a referenced spec file
    /// cannot be read, and any member spec's own parse error.
    pub fn from_json_with_base(value: &Value, base: Option<&Path>) -> Result<Self, SpecError> {
        let fields = Fields::new(value, "suite")?;
        fields.allow(&["schema", "runs", "threads", "seed_base", "fault"])?;
        if let Some(schema) = fields.opt("schema") {
            let tag = schema
                .as_str()
                .ok_or_else(|| schema_err("`schema` must be a string"))?;
            if tag != SUITESPEC_SCHEMA {
                return Err(schema_err(format!(
                    "unsupported schema `{tag}` (expected `{SUITESPEC_SCHEMA}`)"
                )));
            }
        }
        let entries = fields
            .require("runs")?
            .as_array()
            .ok_or_else(|| schema_err("`suite.runs` must be an array"))?;
        let mut runs = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            // A `{"sweep": …}` member is a load-time generator: it
            // expands into one run per grid value before normalization,
            // so the expanded members pick up per-index `stream_seed`
            // rewrites exactly as if they had been written out by hand.
            let is_sweep = entry
                .as_object()
                .is_some_and(|pairs| pairs.iter().any(|(k, _)| k == "sweep"));
            if is_sweep {
                runs.extend(parse_sweep(entry, i)?);
            } else {
                runs.push(parse_member(entry, i, base)?);
            }
        }
        let seed_base = match fields.opt("seed_base") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| schema_err("`suite.seed_base` must be an unsigned integer"))?,
            ),
        };
        let fault = match fields.opt("fault") {
            None | Some(Value::Null) => None,
            Some(v) => Some(FaultPlan::from_json(v)?),
        };
        let spec = SuiteSpec {
            runs,
            threads: fields.usize_or("threads", 0)?,
            seed_base,
            fault,
        }
        .normalized();
        spec.validate()?;
        Ok(spec)
    }

    /// Reads and parses a suite manifest file; file-referenced members
    /// resolve relative to the manifest's own directory.
    ///
    /// # Errors
    ///
    /// [`SpecError::File`] when the manifest cannot be read, otherwise as
    /// for [`SuiteSpec::from_json_with_base`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::File(format!("cannot read `{}`: {e}", path.display())))?;
        let value = json::parse(&text).map_err(|e| SpecError::Json(e.to_string()))?;
        Self::from_json_with_base(&value, path.parent())
    }

    /// The canonical JSON form: every field emitted, members embedded
    /// (file references are a load-time convenience, not part of the
    /// canonical form), fixed key order. The one exception is `fault`:
    /// the diagnostic-only block is omitted entirely when absent, so
    /// fault-free manifests keep their pre-fault canonical bytes.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("schema".to_string(), Value::Str(SUITESPEC_SCHEMA.into())),
            (
                "runs".to_string(),
                Value::Array(self.runs.iter().map(SuiteMember::to_json).collect()),
            ),
            ("threads".to_string(), Value::UInt(self.threads as u64)),
            (
                "seed_base".to_string(),
                match self.seed_base {
                    Some(s) => Value::UInt(s),
                    None => Value::Null,
                },
            ),
        ];
        if let Some(plan) = &self.fault {
            pairs.push(("fault".to_string(), plan.to_json()));
        }
        Value::Object(pairs)
    }

    /// The canonical pretty-printed JSON text (the on-disk manifest
    /// form). Byte-identical across parse/serialize round trips.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

/// Parses a JSON suite manifest (`text.parse::<SuiteSpec>()`). File
/// references resolve relative to the current directory; prefer
/// [`SuiteSpec::load`] for on-disk manifests.
impl std::str::FromStr for SuiteSpec {
    type Err = SpecError;

    /// # Errors
    ///
    /// As for [`SuiteSpec::from_json_with_base`].
    fn from_str(text: &str) -> Result<Self, SpecError> {
        let value = json::parse(text).map_err(|e| SpecError::Json(e.to_string()))?;
        Self::from_json_with_base(&value, None)
    }
}

fn parse_member(
    entry: &Value,
    index: usize,
    base: Option<&Path>,
) -> Result<SuiteMember, SpecError> {
    let Some(pairs) = entry.as_object() else {
        return Err(schema_err(format!(
            "`suite.runs[{index}]` must be a JSON object"
        )));
    };
    // A campaign member wraps its spec in a single `campaign` key;
    // anything alongside it is a typo, named with its member index.
    if pairs.iter().any(|(k, _)| k == "campaign") {
        if let Some((key, _)) = pairs.iter().find(|(k, _)| k != "campaign") {
            return Err(schema_err(format!(
                "`suite.runs[{index}]` has unknown key `{key}` alongside `campaign` \
                 (a campaign member carries only the campaign object)"
            )));
        }
        let inner = pairs
            .iter()
            .find(|(k, _)| k == "campaign")
            .map(|(_, v)| v)
            .expect("checked above");
        return CampaignSpec::from_json(inner)
            .map(SuiteMember::Campaign)
            .map_err(|e| prefix_member_error(e, index));
    }
    if !pairs.iter().any(|(k, _)| k == "file") {
        return RunSpec::from_json(entry)
            .map(SuiteMember::Run)
            .map_err(|e| prefix_member_error(e, index));
    }
    // A file reference carries only the path; anything else is a typo or
    // a half-embedded spec, named with its member index.
    if let Some((key, _)) = pairs.iter().find(|(k, _)| k != "file") {
        return Err(schema_err(format!(
            "`suite.runs[{index}]` has unknown key `{key}` alongside `file` \
             (a file reference carries only the path)"
        )));
    }
    let raw_path = pairs
        .iter()
        .find(|(k, _)| k == "file")
        .map(|(_, v)| v)
        .expect("checked above")
        .as_str()
        .ok_or_else(|| schema_err(format!("`suite.runs[{index}].file` must be a string path")))?;
    let mut path = PathBuf::from(raw_path);
    if path.is_relative() {
        if let Some(base) = base {
            path = base.join(path);
        }
    }
    let text = std::fs::read_to_string(&path).map_err(|e| {
        SpecError::File(format!(
            "`suite.runs[{index}]`: cannot read `{}`: {e}",
            path.display()
        ))
    })?;
    text.parse::<RunSpec>()
        .map(SuiteMember::Run)
        .map_err(|e| prefix_member_error(e, index))
}

/// Expands a `{"sweep": {"run": …, "param": "<key>", "grid": […]}}`
/// member into one run per grid value, in grid order. Expansion is a
/// pure function of the manifest bytes: the same sweep always yields the
/// same member list, and [`SuiteSpec::normalized`] then derives each
/// expanded member's seed from its index exactly as for hand-written
/// members.
fn parse_sweep(entry: &Value, index: usize) -> Result<Vec<SuiteMember>, SpecError> {
    let pairs = entry.as_object().expect("caller checked the sweep key");
    // A sweep member wraps everything in the single `sweep` key;
    // anything alongside it is a typo, named with its member index.
    if let Some((key, _)) = pairs.iter().find(|(k, _)| k != "sweep") {
        return Err(schema_err(format!(
            "`suite.runs[{index}]` has unknown key `{key}` alongside `sweep` \
             (a sweep member carries only the sweep object)"
        )));
    }
    let inner = pairs
        .iter()
        .find(|(k, _)| k == "sweep")
        .map(|(_, v)| v)
        .expect("checked above");
    let fields = Fields::new(inner, "sweep").map_err(|e| prefix_member_error(e, index))?;
    fields
        .allow(&["run", "param", "grid"])
        .map_err(|e| prefix_member_error(e, index))?;
    let run = RunSpec::from_json(
        fields
            .require("run")
            .map_err(|e| prefix_member_error(e, index))?,
    )
    .map_err(|e| match e {
        SpecError::Schema(msg) => {
            SpecError::Schema(format!("`suite.runs[{index}].sweep.run`: {msg}"))
        }
        SpecError::Json(msg) => SpecError::Json(format!("`suite.runs[{index}].sweep.run`: {msg}")),
        SpecError::File(msg) => SpecError::File(msg),
        SpecError::Dsl(e) => SpecError::Dsl(e),
    })?;
    let param = fields
        .require("param")
        .map_err(|e| prefix_member_error(e, index))?
        .as_str()
        .filter(|p| !p.is_empty())
        .ok_or_else(|| {
            schema_err(format!(
                "`suite.runs[{index}].sweep.param` must be a non-empty string"
            ))
        })?
        .to_string();
    let grid = fields
        .require("grid")
        .map_err(|e| prefix_member_error(e, index))?
        .as_array()
        .filter(|g| !g.is_empty())
        .ok_or_else(|| {
            schema_err(format!(
                "`suite.runs[{index}].sweep.grid` must be a non-empty array"
            ))
        })?;

    let mut members = Vec::with_capacity(grid.len());
    for (j, value) in grid.iter().enumerate() {
        if !matches!(
            value,
            Value::UInt(_) | Value::Float(_) | Value::Str(_) | Value::Bool(_)
        ) {
            return Err(schema_err(format!(
                "`suite.runs[{index}].sweep.grid[{j}]` must be a scalar"
            )));
        }
        let mut spec = run.clone();
        spec.scenario = bind_sweep_value(&spec.scenario, &param, value).map_err(|e| match e {
            SpecError::Schema(msg) => {
                SpecError::Schema(format!("`suite.runs[{index}].sweep.grid[{j}]`: {msg}"))
            }
            other => other,
        })?;
        members.push(SuiteMember::Run(spec));
    }
    Ok(members)
}

/// Rebinds one scenario parameter to a grid value: into the DSL binding
/// object for `{"dsl": …}` scenarios (re-validated, so a grid value that
/// breaks an interval bound is rejected with its span at parse time),
/// in-place into the parameter list for registry scenarios.
fn bind_sweep_value(
    scenario: &ScenarioRef,
    param: &str,
    value: &Value,
) -> Result<ScenarioRef, SpecError> {
    if let Some((source, bound)) = scenario.dsl_parts() {
        if value.as_f64().is_none() {
            return Err(schema_err(format!(
                "dsl parameter `{param}` needs a numeric grid value"
            )));
        }
        let mut bound = bound.to_vec();
        match bound.iter_mut().find(|(k, _)| k == param) {
            Some(pair) => pair.1 = value.clone(),
            None => bound.push((param.to_string(), value.clone())),
        }
        let source = source.to_string();
        imc_models::dsl::validate(&source, &bound).map_err(SpecError::Dsl)?;
        return Ok(ScenarioRef::dsl(source, bound));
    }
    let Value::Object(mut pairs) = scenario.params.to_json() else {
        unreachable!("ScenarioParams serializes to an object");
    };
    match pairs.iter_mut().find(|(k, _)| k == param) {
        Some(pair) => pair.1 = value.clone(),
        None => pairs.push((param.to_string(), value.clone())),
    }
    Ok(ScenarioRef {
        name: scenario.name.clone(),
        params: ScenarioParams::from_pairs(pairs),
    })
}

fn prefix_member_error(e: SpecError, index: usize) -> SpecError {
    match e {
        SpecError::Schema(msg) => SpecError::Schema(format!("`suite.runs[{index}]`: {msg}")),
        SpecError::Json(msg) => SpecError::Json(format!("`suite.runs[{index}]`: {msg}")),
        SpecError::File(msg) => SpecError::File(msg),
        // Spanned DSL diagnostics stay typed — the line/column points
        // into the member's own source text.
        SpecError::Dsl(e) => SpecError::Dsl(e),
    }
}

/// Shares built [`Setup`]s across sessions, keyed on the canonical JSON
/// of `(scenario, params)` ([`ScenarioParams::cache_key`]).
///
/// Scenario builds are pure functions of their parameters, so a cache
/// hit returns a `Setup` identical to a fresh build — sharing changes
/// where the models live, never what they are. [`SetupCache::builds`]
/// is the instrumentation for the suite's single-build guarantee (and
/// its tests).
///
/// [`ScenarioParams::cache_key`]: imc_models::ScenarioParams::cache_key
#[derive(Default)]
pub struct SetupCache {
    entries: Vec<(String, Arc<Setup>)>,
}

impl SetupCache {
    /// An empty cache.
    pub fn new() -> Self {
        SetupCache::default()
    }

    /// Returns the cached setup for `scenario`, building it through
    /// `registry` on first use.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioError`] of the underlying build.
    pub fn get_or_build(
        &mut self,
        registry: &ScenarioRegistry,
        scenario: &ScenarioRef,
    ) -> Result<Arc<Setup>, ScenarioError> {
        let key = scenario.params.cache_key(&scenario.name);
        if let Some((_, setup)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(setup));
        }
        let setup = Arc::new(registry.build(&scenario.name, &scenario.params)?);
        self.entries.push((key, Arc::clone(&setup)));
        Ok(setup)
    }

    /// How many setups were actually built (cache misses): every entry
    /// is built exactly once, so this is the entry count.
    pub fn builds(&self) -> usize {
        self.entries.len()
    }

    /// How many distinct `(scenario, params)` keys are cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A resolved, runnable suite: one [`Session`] per member spec, sharing
/// cached [`Setup`]s.
///
/// Sessions are held behind [`Arc`]s so callers can share a member's
/// session (and its cached setup) without cloning the spec.
pub struct Suite {
    spec: SuiteSpec,
    sessions: Vec<Arc<Session>>,
    unique_setups: usize,
}

impl Suite {
    /// Resolves every member scenario through the built-in registry,
    /// building each unique `(scenario, params)` setup exactly once.
    ///
    /// # Errors
    ///
    /// [`SessionError::Spec`] on an invalid suite (empty member list),
    /// [`SessionError::Scenario`] when a member scenario fails to build.
    pub fn from_spec(spec: SuiteSpec) -> Result<Self, SessionError> {
        Self::from_spec_with(spec, &ScenarioRegistry::builtin())
    }

    /// [`Suite::from_spec`] with a caller-supplied registry.
    ///
    /// # Errors
    ///
    /// As for [`Suite::from_spec`].
    pub fn from_spec_with(
        spec: SuiteSpec,
        registry: &ScenarioRegistry,
    ) -> Result<Self, SessionError> {
        Self::from_spec_with_cache(spec, registry, &mut SetupCache::new())
    }

    /// [`Suite::from_spec_with`] resolving setups through a
    /// caller-owned, possibly pre-warmed [`SetupCache`] — the constructor
    /// the serving daemon uses so scenarios stay built across jobs and
    /// clients. [`Suite::unique_setups`] then counts only the builds
    /// *this* call caused (`0` = everything was already cached).
    ///
    /// # Errors
    ///
    /// As for [`Suite::from_spec`].
    pub fn from_spec_with_cache(
        spec: SuiteSpec,
        registry: &ScenarioRegistry,
        cache: &mut SetupCache,
    ) -> Result<Self, SessionError> {
        // Normalising here keeps the programmatic path honest: a spec
        // assembled in code with `seed_base` set runs with the same
        // rewritten seeds its serialized echo claims.
        let spec = spec.normalized();
        spec.validate().map_err(SessionError::Spec)?;
        if spec.fault.is_some() && !fault::enabled() {
            return Err(SessionError::Spec(schema_err(format!(
                "suite has a `fault` block but fault injection is disabled \
                 (set {}=1)",
                fault::FAULT_ENV
            ))));
        }
        let builds_before = cache.builds();
        let mut sessions = Vec::with_capacity(spec.runs.len());
        for member in &spec.runs {
            let run = member.run_spec();
            let setup = cache.get_or_build(registry, &run.scenario)?;
            sessions.push(Arc::new(Session::from_setup(setup, run.clone())));
        }
        Ok(Suite {
            unique_setups: cache.builds() - builds_before,
            spec,
            sessions,
        })
    }

    /// The manifest this suite runs.
    pub fn spec(&self) -> &SuiteSpec {
        &self.spec
    }

    /// The member sessions, manifest order (shared — clone an `Arc` to
    /// keep a member's session beyond the suite).
    pub fn sessions(&self) -> &[Arc<Session>] {
        &self.sessions
    }

    /// How many setups this suite's construction actually built (each
    /// unique `(scenario, params)` at most once; fewer when the
    /// construction reused a pre-warmed [`SetupCache`]).
    pub fn unique_setups(&self) -> usize {
        self.unique_setups
    }

    /// Runs every member session under supervision and folds the
    /// outcomes, in manifest order, into a [`SuiteReport`].
    ///
    /// Sessions fan out over up to `spec.threads` workers (`0` = all
    /// cores). Scheduling never leaks into results: outcomes land in
    /// member-index slots, and every session is itself deterministic, so
    /// the stable JSON is byte-identical at every thread budget.
    ///
    /// A failing member does **not** fail the suite: panics and session
    /// errors are caught (`run_member_supervised`) and become typed
    /// [`MemberOutcome::Failed`] entries — every other member's report
    /// is byte-identical to a fully clean run.
    ///
    /// # Errors
    ///
    /// None at run time (member failures are folded into the report);
    /// the `Result` is kept for API stability.
    pub fn run(&self) -> Result<SuiteReport, SessionError> {
        self.run_with_threads(self.spec.threads)
    }

    /// [`Suite::run`] under an explicit session-level thread budget,
    /// overriding the manifest's `threads` for scheduling only — the
    /// spec echo in the report is untouched. This is the knob the
    /// determinism tests turn to pin byte-identical output across
    /// budgets without editing the manifest.
    ///
    /// # Errors
    ///
    /// As for [`Suite::run`].
    pub fn run_with_threads(&self, threads: usize) -> Result<SuiteReport, SessionError> {
        // Divide the machine between concurrently running sessions: with
        // W suite workers, each session's repetition fan-out gets
        // ~cores/W workers instead of claiming all cores and
        // oversubscribing W-fold (the session divides that hand-me-down
        // budget between its repetition workers and their inner engines
        // in turn). Scheduling only — results are bit-identical at every
        // division.
        let workers = imc_sim::parallel::resolve_threads(threads).min(self.sessions.len().max(1));
        let rep_threads = (imc_sim::parallel::available_threads() / workers).max(1);
        Ok(self.execute(threads, rep_threads, &()))
    }

    /// The one executor behind [`Suite::run`] and the serving daemon:
    /// runs every member under supervision over up to `threads` workers,
    /// each session's repetitions over `rep_threads`, and folds the
    /// outcomes into a [`SuiteReport`] in manifest order. `observer`
    /// sees each member and campaign stage and may skip it; it never
    /// changes what a member that runs computes.
    pub(crate) fn execute(
        &self,
        threads: usize,
        rep_threads: usize,
        observer: &dyn Observer,
    ) -> SuiteReport {
        let started = Instant::now();
        let fault = self.spec.fault.as_ref();
        let results: Vec<(MemberOutcome, f64)> =
            imc_sim::parallel::parallel_map(self.sessions.len(), threads, |i| {
                let clock = Instant::now();
                let outcome = match &self.spec.runs[i] {
                    SuiteMember::Run(_) => {
                        run_member_supervised(&self.sessions[i], rep_threads, fault, i, observer)
                    }
                    SuiteMember::Campaign(campaign) => run_campaign_supervised(
                        &self.sessions[i],
                        campaign,
                        rep_threads,
                        fault,
                        i,
                        observer,
                    ),
                };
                let elapsed_ms = clock.elapsed().as_secs_f64() * 1e3;
                observer.member_done(i, &outcome, elapsed_ms);
                (outcome, elapsed_ms)
            });
        let (members, per_run_ms) = results.into_iter().unzip();
        SuiteReport {
            spec: self.spec.clone(),
            members,
            timing: Timing {
                total_ms: started.elapsed().as_secs_f64() * 1e3,
                per_run_ms,
            },
        }
    }
}

/// What a scheduler sees of [`Suite::execute`]. Every hook defaults to
/// nothing, which is the batch path (`()`); the daemon holds a worker
/// slot from `enter` to `leave`, skips members of cancelled or expired
/// jobs and streams the stage and member events.
pub(crate) trait Observer: Sync {
    /// Called before each run member and each campaign stage runs: take
    /// what running it needs, then answer whether to skip it. A
    /// disposition (cancelled, past the deadline) becomes that member's
    /// or stage's typed entry instead.
    fn enter(&self) -> Option<(MemberStatus, String)> {
        None
    }

    /// The member or stage `enter` was called for is over.
    fn leave(&self) {}

    /// A campaign stage was recorded: its outcome, whether the stopping
    /// rule fired at it, and its wall time.
    fn stage_done(
        &self,
        _member: usize,
        _stage: usize,
        _outcome: &StageOutcome,
        _converged: bool,
        _elapsed_ms: f64,
    ) {
    }

    /// A member's outcome is final.
    fn member_done(&self, _member: usize, _outcome: &MemberOutcome, _elapsed_ms: f64) {}
}

impl Observer for () {}

/// Runs `body` under [`catch_unwind`](std::panic::catch_unwind)
/// supervision with the fault `rule` injected, if any: an `io-error`
/// fails without running, a `delay` sleeps first, and a `panic` panics
/// *inside* the supervised closure. `injected(panicked)` is the injected
/// fault's deterministic message. An error or a caught panic becomes a
/// typed `(status, message)` — never an unwind into the scheduler, so a
/// suite worker (batch or daemon) always survives its member.
fn supervise<T>(
    rule: Option<FaultKind>,
    injected: impl Fn(bool) -> String,
    body: impl FnOnce() -> Result<T, SessionError>,
) -> Result<T, (MemberStatus, String)> {
    match rule {
        Some(FaultKind::IoError) => return Err((MemberStatus::Error, injected(false))),
        Some(FaultKind::Delay { delay_ms }) => std::thread::sleep(Duration::from_millis(delay_ms)),
        _ => {}
    }
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(FaultKind::Panic) = rule {
            panic!("{}", injected(true));
        }
        body()
    }));
    match result {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err((MemberStatus::Error, e.to_string())),
        Err(payload) => Err((MemberStatus::Panic, panic_payload_message(payload))),
    }
}

/// Runs one run member under [`supervise`], applying the suite's fault
/// plan (if any) to `member_index` — unless `observer` skips it on
/// entry.
fn run_member_supervised(
    session: &Arc<Session>,
    rep_threads: usize,
    fault: Option<&FaultPlan>,
    member_index: usize,
    observer: &dyn Observer,
) -> MemberOutcome {
    let rule = fault
        .and_then(|plan| plan.rule_for(member_index))
        .map(|r| r.kind);
    let injected = |panicked: bool| {
        let plan = fault.expect("rule implies plan");
        if panicked {
            plan.panic_message(member_index)
        } else {
            plan.io_error_message(member_index)
        }
    };
    let result = observer.enter().map_or_else(
        || supervise(rule, injected, || session.run_with_rep_threads(rep_threads)),
        Err,
    );
    observer.leave();
    match result {
        Ok(report) => MemberOutcome::Ok(Box::new(report)),
        Err((status, message)) => MemberOutcome::Failed { status, message },
    }
}

/// Runs one campaign member: at most `campaign.stages` supervised
/// stages over the member's shared [`Setup`], advancing the method's
/// estimator state between stages. Stage `s` runs a full session with
/// seed [`stream_seed`]`(seed, 2·s)`; the advance into stage `s` draws
/// from [`stream_seed`]`(seed, 2·s − 1)` — disjoint streams, so the
/// campaign is deterministic and thread-count invariant.
///
/// Supervision applies per stage: an injected or organic failure
/// (panic, error, skip disposition) ends the campaign with a typed
/// entry for *that* stage, and every earlier stage keeps its report.
/// Fault rules resolve through [`FaultPlan::rule_for_stage`], so a rule
/// without a `stage` fires at stage 0. `observer` is entered and left
/// around each stage, may skip it on entry, and sees each recorded one
/// with its wall time.
fn run_campaign_supervised(
    session: &Arc<Session>,
    campaign: &CampaignSpec,
    rep_threads: usize,
    fault: Option<&FaultPlan>,
    member_index: usize,
    observer: &dyn Observer,
) -> MemberOutcome {
    let base = session.spec();
    let estimator = stage_estimator_for(&base.method);
    let mut stages: Vec<StageOutcome> = Vec::new();
    let mut converged: Option<usize> = None;
    let stage_clock = std::cell::Cell::new(Instant::now());
    let record = |stage: usize, outcome: StageOutcome, converged: bool| {
        let elapsed_ms = stage_clock.replace(Instant::now()).elapsed().as_secs_f64() * 1e3;
        observer.stage_done(member_index, stage, &outcome, converged, elapsed_ms);
        outcome
    };
    let mut state = match estimator.initial_state(session.setup()) {
        Ok(state) => state,
        Err(e) => {
            let outcome = StageOutcome::Failed {
                status: MemberStatus::Error,
                message: e.to_string(),
            };
            stages.push(record(0, outcome, false));
            return MemberOutcome::Campaign(Box::new(CampaignOutcome {
                stages,
                converged_stage: None,
            }));
        }
    };
    let mut prev_outcomes: Vec<MethodOutcome> = Vec::new();
    for stage in 0..campaign.stages {
        let rule = fault
            .and_then(|plan| plan.rule_for_stage(member_index, stage))
            .map(|r| r.kind);
        let injected = |panicked: bool| {
            let plan = fault.expect("rule implies plan");
            if panicked {
                plan.stage_panic_message(member_index, stage)
            } else {
                plan.stage_io_error_message(member_index, stage)
            }
        };
        let run_stage = || -> Result<(Report, Vec<MethodOutcome>), SessionError> {
            if stage > 0 {
                let mut rng = StdRng::seed_from_u64(stream_seed(base.seed, 2 * stage as u64 - 1));
                state =
                    estimator.advance(session.setup(), state.clone(), &prev_outcomes, &mut rng)?;
            }
            let mut stage_spec = base.clone();
            stage_spec.seed = stream_seed(base.seed, 2 * stage as u64);
            Session::from_setup(session.setup_shared(), stage_spec).run_stage(
                rep_threads,
                estimator.as_ref(),
                &state,
            )
        };
        let result = observer
            .enter()
            .map_or_else(|| supervise(rule, injected, run_stage), Err);
        observer.leave();
        match result {
            Ok((report, outcomes)) => {
                let done = campaign.converged(&report);
                if done {
                    converged = Some(stage);
                }
                stages.push(record(stage, StageOutcome::Ok(Box::new(report)), done));
                prev_outcomes = outcomes;
                if done {
                    break;
                }
            }
            Err((status, message)) => {
                stages.push(record(
                    stage,
                    StageOutcome::Failed { status, message },
                    false,
                ));
                break;
            }
        }
    }
    MemberOutcome::Campaign(Box::new(CampaignOutcome {
        stages,
        converged_stage: converged,
    }))
}

/// Extracts the human-readable message from an unwind payload (`panic!`
/// with a literal yields `&str`, with a format string yields `String`).
fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

impl fmt::Debug for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Suite")
            .field("runs", &self.spec.runs.len())
            .field("unique_setups", &self.unique_setups)
            .finish()
    }
}

/// The terminal status of one suite member: `ok`, or one of the four
/// typed failure classes a supervised run can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// The member ran to completion and carries a [`Report`].
    Ok,
    /// The member failed with a typed [`SessionError`] (or an injected
    /// transient I/O error).
    Error,
    /// The member panicked; the supervisor caught the unwind.
    Panic,
    /// The member was skipped because its job's deadline had passed
    /// (serving layer only).
    Timeout,
    /// The member was skipped because its job was cancelled (serving
    /// layer only).
    Cancelled,
}

impl MemberStatus {
    /// The wire/report tag of this status.
    pub fn as_str(&self) -> &'static str {
        match self {
            MemberStatus::Ok => "ok",
            MemberStatus::Error => "error",
            MemberStatus::Panic => "panic",
            MemberStatus::Timeout => "timeout",
            MemberStatus::Cancelled => "cancelled",
        }
    }

    /// Parses a report/wire tag back into a status.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "ok" => MemberStatus::Ok,
            "error" => MemberStatus::Error,
            "panic" => MemberStatus::Panic,
            "timeout" => MemberStatus::Timeout,
            "cancelled" => MemberStatus::Cancelled,
            _ => return None,
        })
    }
}

impl fmt::Display for MemberStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The supervised outcome of one campaign stage: a full session
/// [`Report`], or a typed failure with a deterministic message.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOutcome {
    /// The stage completed; its stable report is embedded in the
    /// campaign entry.
    Ok(Box<Report>),
    /// The stage failed (and ended the campaign).
    Failed {
        /// The failure class (never [`MemberStatus::Ok`]).
        status: MemberStatus,
        /// The deterministic failure message.
        message: String,
    },
}

impl StageOutcome {
    /// This stage's status tag.
    pub fn status(&self) -> MemberStatus {
        match self {
            StageOutcome::Ok(_) => MemberStatus::Ok,
            StageOutcome::Failed { status, .. } => *status,
        }
    }

    /// The stage report, when the stage completed.
    pub fn report(&self) -> Option<&Report> {
        match self {
            StageOutcome::Ok(report) => Some(report.as_ref()),
            StageOutcome::Failed { .. } => None,
        }
    }

    /// The failure message, when the stage failed.
    pub fn message(&self) -> Option<&str> {
        match self {
            StageOutcome::Ok(_) => None,
            StageOutcome::Failed { message, .. } => Some(message),
        }
    }

    /// The deterministic JSON form of one `campaign.stages[]` entry:
    /// `{"stage": s, "status": "ok", "report": {…}}` for a completed
    /// stage, `{"stage": s, "status": <class>, "message": …}` otherwise.
    pub fn to_json_stable(&self, stage: usize) -> Value {
        match self {
            StageOutcome::Ok(report) => Value::object([
                ("stage".into(), Value::UInt(stage as u64)),
                ("status".into(), Value::Str("ok".into())),
                ("report".into(), report.to_json_stable()),
            ]),
            StageOutcome::Failed { status, message } => Value::object([
                ("stage".into(), Value::UInt(stage as u64)),
                ("status".into(), Value::Str(status.as_str().into())),
                ("message".into(), Value::Str(message.clone())),
            ]),
        }
    }
}

/// The supervised outcome of one campaign member: per-stage outcomes in
/// stage order (never empty) plus the stage the stopping rule fired at,
/// if it did. Only the last stage can be a failure — a failing stage
/// ends the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Per-stage outcomes, stage order.
    pub stages: Vec<StageOutcome>,
    /// The stage whose report met `target_rel_width`, when the campaign
    /// stopped early.
    pub converged_stage: Option<usize>,
}

impl CampaignOutcome {
    /// The final stage's report — the campaign's result — when the
    /// campaign completed.
    pub fn final_report(&self) -> Option<&Report> {
        self.stages.last().and_then(StageOutcome::report)
    }

    /// The campaign's overall status: its final stage's.
    pub fn status(&self) -> MemberStatus {
        self.stages
            .last()
            .map(StageOutcome::status)
            .unwrap_or(MemberStatus::Error)
    }

    /// The failure message, when the final stage failed.
    pub fn message(&self) -> Option<&str> {
        self.stages.last().and_then(StageOutcome::message)
    }

    /// The deterministic JSON form of the `campaign` object inside a
    /// member entry.
    pub fn to_json_stable(&self) -> Value {
        Value::object([
            (
                "converged_stage".into(),
                match self.converged_stage {
                    Some(stage) => Value::UInt(stage as u64),
                    None => Value::Null,
                },
            ),
            (
                "stages".into(),
                Value::Array(
                    self.stages
                        .iter()
                        .enumerate()
                        .map(|(stage, outcome)| outcome.to_json_stable(stage))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The supervised outcome of one suite member: a [`Report`], a typed
/// failure with a deterministic message, or a campaign's stage
/// sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberOutcome {
    /// The member completed; its stable report is embedded in the suite
    /// report. Boxed: a [`Report`] is an order of magnitude larger than
    /// the failure variant, and suites hold one outcome per member.
    Ok(Box<Report>),
    /// The member failed; the suite (and the daemon) survive, and the
    /// report carries the failure in manifest order.
    Failed {
        /// The failure class (never [`MemberStatus::Ok`]).
        status: MemberStatus,
        /// The deterministic failure message (a [`SessionError`]
        /// rendering, a caught panic payload, or a typed
        /// timeout/cancellation notice).
        message: String,
    },
    /// A campaign member's stage sequence. The member-level status (and
    /// report, for the summary table) is the final stage's.
    Campaign(Box<CampaignOutcome>),
}

impl MemberOutcome {
    /// This outcome's status tag.
    pub fn status(&self) -> MemberStatus {
        match self {
            MemberOutcome::Ok(_) => MemberStatus::Ok,
            MemberOutcome::Failed { status, .. } => *status,
            MemberOutcome::Campaign(campaign) => campaign.status(),
        }
    }

    /// The member report, when the member completed (a campaign's is
    /// its final stage's).
    pub fn report(&self) -> Option<&Report> {
        match self {
            MemberOutcome::Ok(report) => Some(report.as_ref()),
            MemberOutcome::Failed { .. } => None,
            MemberOutcome::Campaign(campaign) => campaign.final_report(),
        }
    }

    /// The failure message, when the member failed.
    pub fn message(&self) -> Option<&str> {
        match self {
            MemberOutcome::Ok(_) => None,
            MemberOutcome::Failed { message, .. } => Some(message),
            MemberOutcome::Campaign(campaign) => campaign.message(),
        }
    }

    /// The campaign outcome, when this member is a campaign.
    pub fn campaign(&self) -> Option<&CampaignOutcome> {
        match self {
            MemberOutcome::Campaign(campaign) => Some(campaign.as_ref()),
            _ => None,
        }
    }

    /// The deterministic JSON form of one `reports[]` entry:
    /// `{"status": "ok", "report": {…}}` for a completed member,
    /// `{"status": <class>, "message": …}` for a failed one, and
    /// `{"status": …, ["message": …,] "campaign": {…}}` for a campaign
    /// (message present exactly when the final stage failed).
    pub fn to_json_stable(&self) -> Value {
        match self {
            MemberOutcome::Ok(report) => Value::object([
                ("status".into(), Value::Str("ok".into())),
                ("report".into(), report.to_json_stable()),
            ]),
            MemberOutcome::Failed { status, message } => Value::object([
                ("status".into(), Value::Str(status.as_str().into())),
                ("message".into(), Value::Str(message.clone())),
            ]),
            MemberOutcome::Campaign(campaign) => {
                let mut pairs = vec![(
                    "status".to_string(),
                    Value::Str(campaign.status().as_str().into()),
                )];
                if let Some(message) = campaign.message() {
                    pairs.push(("message".to_string(), Value::Str(message.into())));
                }
                pairs.push(("campaign".to_string(), campaign.to_json_stable()));
                Value::Object(pairs)
            }
        }
    }
}

/// The uniform result of a [`Suite`] run: per-member [`MemberOutcome`]s
/// in manifest order plus a cross-run summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// The manifest that produced this report (canonical echo).
    pub spec: SuiteSpec,
    /// Per-member outcomes, manifest order.
    pub members: Vec<MemberOutcome>,
    /// Wall-clock timing (volatile; excluded from the stable JSON form).
    /// `per_run_ms` holds per-member session wall times.
    pub timing: Timing,
}

impl SuiteReport {
    /// The failed members, manifest order: `(member index, status,
    /// message)`.
    pub fn failures(&self) -> impl Iterator<Item = (usize, MemberStatus, &str)> {
        self.members.iter().enumerate().filter_map(|(i, m)| {
            let status = m.status();
            if status == MemberStatus::Ok {
                None
            } else {
                Some((i, status, m.message().unwrap_or("")))
            }
        })
    }

    /// The deterministic JSON form: everything except `timing` (member
    /// outcomes are embedded in their own stable form). Two runs of the
    /// same suite manifest produce byte-identical
    /// `to_json_stable().pretty()` text at every thread budget.
    pub fn to_json_stable(&self) -> Value {
        let summary: Vec<Value> = self
            .members
            .iter()
            .enumerate()
            .map(|(i, member)| summary_row(i, self.spec.runs[i].run_spec(), member))
            .collect();
        // Run-only suites keep their pre-campaign `/2` bytes; the `/3`
        // tag appears exactly when a campaign member does.
        let schema = if self.spec.has_campaigns() {
            SUITEREPORT_SCHEMA_V3
        } else {
            SUITEREPORT_SCHEMA
        };
        Value::object([
            ("schema".into(), Value::Str(schema.into())),
            ("spec".into(), self.spec.to_json()),
            ("summary".into(), Value::Array(summary)),
            (
                "reports".into(),
                Value::Array(
                    self.members
                        .iter()
                        .map(MemberOutcome::to_json_stable)
                        .collect(),
                ),
            ),
        ])
    }

    /// The full JSON form, including the volatile `timing` object.
    pub fn to_json(&self) -> Value {
        let mut value = self.to_json_stable();
        if let Value::Object(pairs) = &mut value {
            pairs.push(("timing".into(), self.timing.to_json()));
        }
        value
    }

    /// Pretty-printed [`SuiteReport::to_json`] — the `imcis suite`
    /// output form.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

/// Validates a JSON value against the `imcis.suitereport/2` (run-only)
/// or `imcis.suitereport/3` (campaign-bearing) shape using the real
/// spec parsers underneath: the `spec` echo must parse as a
/// [`SuiteSpec`] and agree with the schema tag, every `reports[]` entry
/// must be a typed [`MemberOutcome`] of the member's kind (embedded
/// reports pass
/// [`validate_report_json`](crate::report::validate_report_json);
/// campaign entries carry a consistent per-stage sequence), and the
/// summary table must be consistent with the member entries and the
/// spec echo. Accepts both the stable form and the full form (with the
/// volatile `timing` object).
///
/// This is the validator behind the `imcis submit` client's event checks
/// and the `docs/FORMATS.md` example tests.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_suite_report_json(value: &Value) -> Result<(), String> {
    let pairs = value
        .as_object()
        .ok_or("suite report must be a JSON object")?;
    for (key, _) in pairs {
        if !matches!(
            key.as_str(),
            "schema" | "spec" | "summary" | "reports" | "timing"
        ) {
            return Err(format!("unknown suite report key `{key}`"));
        }
    }
    let tag = match value.get("schema").and_then(Value::as_str) {
        Some(tag @ (SUITEREPORT_SCHEMA | SUITEREPORT_SCHEMA_V3)) => tag,
        Some(other) => return Err(format!("unexpected schema `{other}`")),
        None => return Err("missing `schema` tag".into()),
    };
    let spec_value = value.get("spec").ok_or("missing `spec` echo")?;
    let spec = SuiteSpec::from_json_with_base(spec_value, None)
        .map_err(|e| format!("`spec` echo does not validate: {e}"))?;
    let expected = if spec.has_campaigns() {
        SUITEREPORT_SCHEMA_V3
    } else {
        SUITEREPORT_SCHEMA
    };
    if tag != expected {
        return Err(format!(
            "schema `{tag}` does not match the manifest (run-only suites use \
             `{SUITEREPORT_SCHEMA}`, suites with campaign members `{SUITEREPORT_SCHEMA_V3}`)"
        ));
    }
    let reports = value
        .get("reports")
        .and_then(Value::as_array)
        .ok_or("`reports` must be an array")?;
    if reports.len() != spec.runs.len() {
        return Err(format!(
            "{} member entries for {} manifest runs",
            reports.len(),
            spec.runs.len()
        ));
    }
    let mut statuses = Vec::with_capacity(reports.len());
    for (i, entry) in reports.iter().enumerate() {
        statuses.push(
            validate_member_entry(entry, spec.runs[i].is_campaign())
                .map_err(|e| format!("`reports[{i}]`: {e}"))?,
        );
    }
    let summary = value
        .get("summary")
        .and_then(Value::as_array)
        .ok_or("`summary` must be an array")?;
    if summary.len() != reports.len() {
        return Err(format!(
            "{} summary rows for {} member entries",
            summary.len(),
            reports.len()
        ));
    }
    for (i, (row, entry)) in summary.iter().zip(reports).enumerate() {
        let context = |msg: String| format!("`summary[{i}]`: {msg}");
        if row.get("run").and_then(Value::as_usize) != Some(i) {
            return Err(context("`run` must equal the member index".into()));
        }
        if row.get("status").and_then(Value::as_str) != Some(statuses[i].as_str()) {
            return Err(context(
                "`status` disagrees with `reports` at the same index".into(),
            ));
        }
        // Scenario, method and seed come from the spec echo, so they are
        // present even for members that never produced a report.
        let run = spec.runs[i].run_spec();
        let consistent = row.get("scenario").and_then(Value::as_str)
            == Some(run.scenario.name.as_str())
            && row.get("method").and_then(Value::as_str) == Some(run.method.name())
            && row.get("seed").and_then(Value::as_u64) == Some(run.seed);
        if !consistent {
            return Err(context("row disagrees with the `spec` echo".into()));
        }
        if statuses[i] == MemberStatus::Ok {
            // A campaign member's summary row reads off its final stage.
            let report = if spec.runs[i].is_campaign() {
                entry
                    .get("campaign")
                    .and_then(|c| c.get("stages"))
                    .and_then(Value::as_array)
                    .and_then(|stages| stages.last())
                    .and_then(|s| s.get("report"))
                    .expect("validated above")
            } else {
                entry.get("report").expect("validated above")
            };
            let consistent = row.get("model").and_then(Value::as_str)
                == report.get("model").and_then(Value::as_str)
                && row.get("estimate").and_then(Value::as_f64)
                    == report.get("estimate").and_then(Value::as_f64);
            if !consistent {
                return Err(context(
                    "row disagrees with `reports` at the same index".into(),
                ));
            }
        } else {
            for key in ["model", "estimate", "sigma", "ci"] {
                if !matches!(row.get(key), Some(Value::Null)) {
                    return Err(context(format!(
                        "failed members carry a null `{key}` column"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Validates one `reports[]` entry of a suite report (a serialized
/// [`MemberOutcome`]) and returns its status. `campaign` says which
/// member kind the spec echo declares at this index — campaign members
/// must carry a `campaign` stage sequence, run members must not.
pub(crate) fn validate_member_entry(entry: &Value, campaign: bool) -> Result<MemberStatus, String> {
    if campaign {
        return validate_campaign_entry(entry);
    }
    let pairs = entry.as_object().ok_or("must be a JSON object")?;
    let tag = entry
        .get("status")
        .and_then(Value::as_str)
        .ok_or("`status` must be a string")?;
    let status = MemberStatus::from_tag(tag).ok_or_else(|| {
        format!("unknown status `{tag}` (ok | error | panic | timeout | cancelled)")
    })?;
    if status == MemberStatus::Ok {
        for (key, _) in pairs {
            if !matches!(key.as_str(), "status" | "report") {
                return Err(format!("unknown key `{key}`"));
            }
        }
        let report = entry
            .get("report")
            .ok_or("status `ok` requires an embedded `report`")?;
        crate::report::validate_report_json(report)?;
    } else {
        for (key, _) in pairs {
            if !matches!(key.as_str(), "status" | "message") {
                return Err(format!("unknown key `{key}`"));
            }
        }
        let message = entry
            .get("message")
            .and_then(Value::as_str)
            .ok_or("failed members require a string `message`")?;
        if message.is_empty() {
            return Err("`message` must not be empty".into());
        }
    }
    Ok(status)
}

/// Validates one campaign member entry (`{"status": …, ["message": …,]
/// "campaign": {"converged_stage": …, "stages": […]}}`) and returns its
/// status: per-stage entries are index-pinned, only the last stage may
/// fail, the member status/message echo the final stage's, and a
/// `converged_stage` must name a completed final stage.
fn validate_campaign_entry(entry: &Value) -> Result<MemberStatus, String> {
    let pairs = entry.as_object().ok_or("must be a JSON object")?;
    for (key, _) in pairs {
        if !matches!(key.as_str(), "status" | "message" | "campaign") {
            return Err(format!("unknown key `{key}`"));
        }
    }
    let tag = entry
        .get("status")
        .and_then(Value::as_str)
        .ok_or("`status` must be a string")?;
    let status = MemberStatus::from_tag(tag).ok_or_else(|| {
        format!("unknown status `{tag}` (ok | error | panic | timeout | cancelled)")
    })?;
    let message = if status == MemberStatus::Ok {
        if entry.get("message").is_some() {
            return Err("completed campaigns carry no `message`".into());
        }
        None
    } else {
        Some(
            entry
                .get("message")
                .and_then(Value::as_str)
                .ok_or("failed members require a string `message`")?,
        )
    };
    let campaign = entry
        .get("campaign")
        .ok_or("campaign members require an embedded `campaign` object")?;
    let campaign_pairs = campaign
        .as_object()
        .ok_or("`campaign` must be a JSON object")?;
    for (key, _) in campaign_pairs {
        if !matches!(key.as_str(), "converged_stage" | "stages") {
            return Err(format!("unknown campaign key `{key}`"));
        }
    }
    let stages = campaign
        .get("stages")
        .and_then(Value::as_array)
        .ok_or("`campaign.stages` must be an array")?;
    if stages.is_empty() {
        return Err("`campaign.stages` must not be empty".into());
    }
    let mut last_status = MemberStatus::Ok;
    let mut last_message: Option<&str> = None;
    for (i, stage_entry) in stages.iter().enumerate() {
        let context = |msg: String| format!("`campaign.stages[{i}]`: {msg}");
        let stage_pairs = stage_entry
            .as_object()
            .ok_or_else(|| context("must be a JSON object".into()))?;
        if stage_entry.get("stage").and_then(Value::as_usize) != Some(i) {
            return Err(context("`stage` must equal the entry index".into()));
        }
        let stage_tag = stage_entry
            .get("status")
            .and_then(Value::as_str)
            .ok_or_else(|| context("`status` must be a string".into()))?;
        let stage_status = MemberStatus::from_tag(stage_tag)
            .ok_or_else(|| context(format!("unknown status `{stage_tag}`")))?;
        if stage_status != MemberStatus::Ok && i + 1 < stages.len() {
            return Err(context(
                "only the final stage may fail (a failing stage ends the campaign)".into(),
            ));
        }
        if stage_status == MemberStatus::Ok {
            for (key, _) in stage_pairs {
                if !matches!(key.as_str(), "stage" | "status" | "report") {
                    return Err(context(format!("unknown key `{key}`")));
                }
            }
            let report = stage_entry
                .get("report")
                .ok_or_else(|| context("status `ok` requires an embedded `report`".into()))?;
            crate::report::validate_report_json(report).map_err(context)?;
            last_message = None;
        } else {
            for (key, _) in stage_pairs {
                if !matches!(key.as_str(), "stage" | "status" | "message") {
                    return Err(context(format!("unknown key `{key}`")));
                }
            }
            let stage_message = stage_entry
                .get("message")
                .and_then(Value::as_str)
                .ok_or_else(|| context("failed stages require a string `message`".into()))?;
            if stage_message.is_empty() {
                return Err(context("`message` must not be empty".into()));
            }
            last_message = Some(stage_message);
        }
        last_status = stage_status;
    }
    if last_status != status {
        return Err("member `status` must equal the final stage's status".into());
    }
    if message != last_message {
        return Err("member `message` must echo the final stage's message".into());
    }
    match campaign.get("converged_stage") {
        None | Some(Value::Null) => {}
        Some(v) => {
            let converged = v
                .as_usize()
                .ok_or("`campaign.converged_stage` must be null or an unsigned stage index")?;
            if converged + 1 != stages.len() || last_status != MemberStatus::Ok {
                return Err("`converged_stage` must name the completed final stage entry".into());
            }
        }
    }
    Ok(status)
}

/// One row of the cross-run summary table: the columns a paper table
/// sweep reads off (scenario × method × seed → status, estimate, CI,
/// coverage). Identity columns come from the manifest run, so failed
/// members keep their row — with null result columns — in manifest
/// order.
fn summary_row(index: usize, run: &RunSpec, member: &MemberOutcome) -> Value {
    let report = member.report();
    Value::object([
        ("run".into(), Value::UInt(index as u64)),
        ("status".into(), Value::Str(member.status().as_str().into())),
        ("scenario".into(), Value::Str(run.scenario.name.clone())),
        ("method".into(), Value::Str(run.method.name().into())),
        (
            "model".into(),
            match report {
                Some(r) => Value::Str(r.model.clone()),
                None => Value::Null,
            },
        ),
        ("seed".into(), Value::UInt(run.seed)),
        (
            "estimate".into(),
            match report {
                Some(r) => Value::Float(r.estimate),
                None => Value::Null,
            },
        ),
        (
            "sigma".into(),
            match report {
                Some(r) => Value::Float(r.sigma),
                None => Value::Null,
            },
        ),
        (
            "ci".into(),
            match report {
                Some(r) => ci_json(&r.ci),
                None => Value::Null,
            },
        ),
        (
            "coverage_gamma_hat".into(),
            match report {
                Some(r) => opt_float(r.coverage_gamma_hat),
                None => Value::Null,
            },
        ),
        (
            "coverage_gamma_true".into(),
            match report {
                Some(r) => opt_float(r.coverage_gamma_true),
                None => Value::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AdaptiveSpec, Method, SampleSpec};
    use std::str::FromStr;

    fn smc_run(seed: u64) -> RunSpec {
        RunSpec::new(
            ScenarioRef::named("illustrative"),
            Method::Smc(SampleSpec {
                n_traces: 200,
                delta: 0.05,
                max_steps: 10_000,
            }),
            seed,
        )
        .with_threads(1, 1)
    }

    #[test]
    fn empty_suite_is_rejected_with_a_clear_message() {
        let err = SuiteSpec::new(Vec::new()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "spec does not match the schema: `suite.runs` must contain at least one run \
             (an empty suite has no report)"
        );
        let err = SuiteSpec::from_str("{\"runs\": []}").unwrap_err();
        assert!(matches!(err, SpecError::Schema(_)), "{err}");
    }

    #[test]
    fn suite_round_trip_is_byte_identical() {
        let spec = SuiteSpec::new(vec![smc_run(1), smc_run(2)])
            .unwrap()
            .with_threads(2);
        let text = spec.to_json_string();
        let reparsed = SuiteSpec::from_str(&text).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.to_json_string(), text);
    }

    #[test]
    fn seed_base_rewrites_member_seeds_with_splitmix_spacing() {
        let mut spec = SuiteSpec::new(vec![smc_run(1), smc_run(1), smc_run(1)]).unwrap();
        spec.seed_base = Some(77);
        let reparsed = SuiteSpec::from_str(&spec.to_json_string()).unwrap();
        for (i, member) in reparsed.runs.iter().enumerate() {
            assert_eq!(member.run_spec().seed, stream_seed(77, i as u64));
        }
        // The finaliser keeps (member, repetition) streams distinct: the
        // bare Weyl step would alias member 0 rep 1 with member 1 rep 0
        // (both `base + 1·φ`), duplicating "independent" repetitions.
        let phi = 0x9E37_79B9_7F4A_7C15u64;
        assert_ne!(
            reparsed.runs[0].run_spec().seed.wrapping_add(phi),
            reparsed.runs[1].run_spec().seed
        );
        // Idempotent: the rewrite is a pure function of (base, index).
        assert_eq!(
            SuiteSpec::from_str(&reparsed.to_json_string()).unwrap(),
            reparsed
        );
        // The programmatic path normalises too: a suite built from the
        // un-serialized spec runs with exactly the seeds the echo claims.
        assert_eq!(spec.clone().normalized(), reparsed);
        let suite = Suite::from_spec(spec).unwrap();
        for (i, session) in suite.sessions().iter().enumerate() {
            assert_eq!(session.spec().seed, stream_seed(77, i as u64));
        }
        assert_eq!(suite.spec().runs, reparsed.runs);
    }

    #[test]
    fn unknown_suite_keys_are_rejected() {
        for text in [
            "{\"runs\": [], \"wat\": 1}",
            "{\"schema\": \"imcis.suitespec/99\", \"runs\": []}",
        ] {
            assert!(
                matches!(SuiteSpec::from_str(text), Err(SpecError::Schema(_))),
                "{text}"
            );
        }
        let missing = SuiteSpec::from_str("{\"runs\": [{\"file\": \"/definitely/not/here\"}]}");
        assert!(matches!(missing, Err(SpecError::File(_))), "{missing:?}");
        // Extra keys beside a file reference name the member index.
        let mixed =
            SuiteSpec::from_str("{\"runs\": [{\"file\": \"a.json\", \"seed\": 3}]}").unwrap_err();
        assert_eq!(
            mixed.to_string(),
            "spec does not match the schema: `suite.runs[0]` has unknown key `seed` \
             alongside `file` (a file reference carries only the path)"
        );
    }

    #[test]
    fn member_errors_carry_their_index() {
        let err = SuiteSpec::from_str(
            "{\"runs\": [{\"scenario\": {\"name\": \"x\"}, \"method\": {\"name\": \"smc\"}}, \
             {\"scenario\": {\"name\": \"x\"}, \"method\": {\"name\": \"teleport\"}}]}",
        )
        .unwrap_err();
        let SpecError::Schema(msg) = err else {
            panic!("expected a schema error");
        };
        assert!(msg.starts_with("`suite.runs[1]`:"), "{msg}");
    }

    #[test]
    fn fault_blocks_round_trip_and_are_range_checked() {
        let text = r#"{
            "runs": [
                {"scenario": {"name": "illustrative"},
                 "method": {"name": "smc", "n_traces": 200}, "seed": 1}
            ],
            "fault": {"seed": 9, "injections": [{"member": 0, "kind": "panic"}]}
        }"#;
        let spec = SuiteSpec::from_str(text).unwrap();
        assert!(spec.fault.is_some());
        let canonical = spec.to_json_string();
        let reparsed = SuiteSpec::from_str(&canonical).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.to_json_string(), canonical);
        // A fault-free spec's canonical bytes never mention `fault`.
        let clean = SuiteSpec::new(vec![smc_run(1)]).unwrap();
        assert!(!clean.to_json_string().contains("fault"));
        // Out-of-range targets are named with their injection index.
        let err = SuiteSpec::from_str(
            r#"{"runs": [{"scenario": {"name": "illustrative"},
                          "method": {"name": "smc"}}],
                "fault": {"injections": [{"member": 3, "kind": "panic"}]}}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "spec does not match the schema: `suite.fault.injections[0]` targets member 3 \
             but the suite has 1 members"
        );
    }

    #[test]
    fn fault_blocks_are_refused_unless_injection_is_enabled() {
        if fault::enabled() {
            return; // the harness opted in; the gate is open by design
        }
        let spec = SuiteSpec::new(vec![smc_run(1)])
            .unwrap()
            .with_fault(FaultPlan {
                seed: 1,
                injections: vec![crate::fault::FaultRule {
                    member: 0,
                    kind: FaultKind::Panic,
                    stage: None,
                }],
            });
        let err = Suite::from_spec(spec).unwrap_err();
        assert!(err.to_string().contains("IMCIS_FAULT_INJECTION"), "{err}");
    }

    #[test]
    fn supervised_member_runs_capture_injected_faults_as_typed_outcomes() {
        let suite = Suite::from_spec(SuiteSpec::new(vec![smc_run(1)]).unwrap()).unwrap();
        let session = &suite.sessions()[0];
        let plan = |kind| FaultPlan {
            seed: 5,
            injections: vec![crate::fault::FaultRule {
                member: 0,
                kind,
                stage: None,
            }],
        };

        // A clean supervised run matches the unsupervised session run.
        let clean = run_member_supervised(session, 1, None, 0, &());
        assert_eq!(clean.status(), MemberStatus::Ok);
        assert_eq!(
            clean.report().unwrap().to_json_stable().pretty(),
            session
                .run_with_rep_threads(1)
                .unwrap()
                .to_json_stable()
                .pretty()
        );

        // An injected panic is caught, not propagated, with its pinned
        // fault-point message.
        let panic_plan = plan(FaultKind::Panic);
        let outcome = run_member_supervised(session, 1, Some(&panic_plan), 0, &());
        assert_eq!(outcome.status(), MemberStatus::Panic);
        assert_eq!(
            outcome.message(),
            Some(panic_plan.panic_message(0).as_str())
        );

        // An injected transient I/O error never runs the session.
        let io_plan = plan(FaultKind::IoError);
        let outcome = run_member_supervised(session, 1, Some(&io_plan), 0, &());
        assert_eq!(outcome.status(), MemberStatus::Error);
        assert_eq!(
            outcome.message(),
            Some(io_plan.io_error_message(0).as_str())
        );

        // A delay changes wall time only: the report stays byte-identical.
        let delayed = run_member_supervised(
            session,
            1,
            Some(&plan(FaultKind::Delay { delay_ms: 10 })),
            0,
            &(),
        );
        assert_eq!(
            delayed.report().unwrap().to_json_stable().pretty(),
            clean.report().unwrap().to_json_stable().pretty()
        );
    }

    fn ce_campaign_member(seed: u64, stages: usize) -> SuiteMember {
        let run = RunSpec::new(
            ScenarioRef::named("illustrative"),
            Method::CeCampaign(AdaptiveSpec {
                sample: SampleSpec {
                    n_traces: 300,
                    delta: 0.05,
                    max_steps: 10_000,
                },
                training_traces: 300,
            }),
            seed,
        )
        .with_threads(1, 1);
        SuiteMember::Campaign(CampaignSpec::new(run, stages))
    }

    #[test]
    fn campaign_members_round_trip_and_validate() {
        let spec =
            SuiteSpec::from_members(vec![SuiteMember::Run(smc_run(1)), ce_campaign_member(2, 3)])
                .unwrap();
        assert!(spec.has_campaigns());
        let text = spec.to_json_string();
        let reparsed = SuiteSpec::from_str(&text).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.to_json_string(), text);
        assert_eq!(reparsed.runs[1].campaign().unwrap().stages, 3);

        // Zero stages, extra keys beside `campaign`, and malformed
        // targets are named with their index/context.
        for (text, needle) in [
            (
                r#"{"runs": [{"campaign": {"run": {"scenario": {"name": "illustrative"},
                     "method": {"name": "ce-campaign"}}, "stages": 0}}]}"#,
                "`campaign.stages` must be positive",
            ),
            (
                r#"{"runs": [{"campaign": {"run": {"scenario": {"name": "illustrative"},
                     "method": {"name": "ce-campaign"}}, "stages": 2}, "seed": 7}]}"#,
                "unknown key `seed` alongside `campaign`",
            ),
            (
                r#"{"runs": [{"campaign": {"run": {"scenario": {"name": "illustrative"},
                     "method": {"name": "ce-campaign"}}, "stages": 2,
                     "target_rel_width": -0.5}}]}"#,
                "`campaign.target_rel_width` must be a positive finite number",
            ),
            (
                r#"{"runs": [{"campaign": {"run": {"scenario": {"name": "illustrative"},
                     "method": {"name": "teleport"}}, "stages": 2}}]}"#,
                "`suite.runs[0]`: `campaign.run`: unknown method `teleport`",
            ),
            (
                r#"{"runs": [{"scenario": {"name": "illustrative"}, "method": {"name": "smc"}}],
                    "fault": {"injections": [{"member": 0, "kind": "panic", "stage": 1}]}}"#,
                "has a `stage` but member 0 is not a campaign",
            ),
            (
                r#"{"runs": [{"campaign": {"run": {"scenario": {"name": "illustrative"},
                     "method": {"name": "ce-campaign"}}, "stages": 2}}],
                    "fault": {"injections": [{"member": 0, "kind": "panic", "stage": 5}]}}"#,
                "targets stage 5 but member 0 has 2 stages",
            ),
        ] {
            let err = SuiteSpec::from_str(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn campaign_suites_report_v3_deterministically() {
        let spec = SuiteSpec::from_members(vec![
            ce_campaign_member(2018, 2),
            SuiteMember::Run(smc_run(1)),
        ])
        .unwrap()
        .with_threads(1);
        let report = Suite::from_spec(spec.clone()).unwrap().run().unwrap();
        let stable = report.to_json_stable().pretty();
        // Campaign suites carry the /3 tag and pass the validator.
        assert!(stable.contains(SUITEREPORT_SCHEMA_V3), "{stable}");
        validate_suite_report_json(&report.to_json()).unwrap();
        // The campaign ran both stages and its summary row reads off the
        // final stage's report.
        let campaign = report.members[0].campaign().unwrap();
        assert_eq!(campaign.stages.len(), 2);
        assert_eq!(campaign.converged_stage, None);
        assert_eq!(
            report.members[0].report().unwrap().estimate,
            campaign.stages[1].report().unwrap().estimate
        );
        // Byte-identical at another thread budget.
        let again = Suite::from_spec(spec).unwrap().run_with_threads(4).unwrap();
        assert_eq!(again.to_json_stable().pretty(), stable);
        // Run-only suites keep their /2 bytes.
        let run_only = Suite::from_spec(SuiteSpec::new(vec![smc_run(1)]).unwrap())
            .unwrap()
            .run()
            .unwrap();
        let run_only_stable = run_only.to_json_stable().pretty();
        assert!(
            run_only_stable.contains(SUITEREPORT_SCHEMA),
            "{run_only_stable}"
        );
        assert!(!run_only_stable.contains(SUITEREPORT_SCHEMA_V3));
        validate_suite_report_json(&run_only.to_json()).unwrap();
    }

    #[test]
    fn campaigns_stop_at_the_relative_width_target() {
        let SuiteMember::Campaign(campaign) = ce_campaign_member(3, 4) else {
            unreachable!()
        };
        let spec = SuiteSpec::from_members(vec![SuiteMember::Campaign(
            campaign.with_target_rel_width(1e9),
        )])
        .unwrap();
        let report = Suite::from_spec(spec).unwrap().run().unwrap();
        let campaign = report.members[0].campaign().unwrap();
        // Any positive estimate beats a 1e9 relative width: the campaign
        // converges at stage 0 and never runs the remaining stages.
        assert_eq!(campaign.converged_stage, Some(0));
        assert_eq!(campaign.stages.len(), 1);
        validate_suite_report_json(&report.to_json()).unwrap();
    }

    #[test]
    fn setup_cache_builds_each_unique_scenario_once() {
        let registry = ScenarioRegistry::builtin();
        let mut cache = SetupCache::new();
        let a = cache
            .get_or_build(&registry, &ScenarioRef::named("illustrative"))
            .unwrap();
        let b = cache
            .get_or_build(&registry, &ScenarioRef::named("illustrative"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache hit must share the build");
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.len(), 1);
    }
}
