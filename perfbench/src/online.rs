//! The online phase: a closed loop with one caller that assigns each
//! batch of arrivals one query at a time (the reads) and then absorbs it
//! into the evolving model (the write).
//!
//! A pass replays the workload's arrivals from the freshly loaded model
//! to the end, so every pass does the same work. Untraced, a pass
//! drives `OnlineAssignService`. Traced, it replays the same work
//! through the calls the service makes — `IncrementalRockState::update`,
//! then `to_artifact` and `AssignService::new` whenever the batch
//! changed the model — with a span around each.

use crate::fit;
use crate::gate::OnlineImage;
use crate::trace::Tracer;
use crate::workload::FitParams;
use rock_core::governor::RunGovernor;
use rock_core::points::Transaction;
use rock_core::{
    AssignService, IncrementalRockState, Jaccard, ModelArtifact, OnlineAssignService, RockError,
    RockModel, ServeBatch, ServeConfig, StalenessPolicy, UpdateOutcome,
};
use std::path::Path;
use std::time::Instant;

/// Fits the servable model on `data`, saves it to `path`, loads it back
/// and opens an online service over it — the online phase's set-up.
/// Returns the loaded artifact. Spans `artifact.save` and
/// `artifact.load` go to `tracer`.
pub fn setup(
    tracer: &mut Tracer,
    op: u64,
    data: &[Transaction],
    params: &FitParams,
    path: &Path,
) -> Result<ModelArtifact, RockError> {
    let model = RockModel::new(fit::rock(params, 2), Jaccard);
    let (_fit, artifact) = model.fit_artifact(data)?;
    tracer.span("artifact.save", op, || artifact.save(path))?;
    let loaded = tracer.span("artifact.load", op, || ModelArtifact::load(path));
    std::fs::remove_file(path).ok();
    let artifact = loaded?;
    open(&artifact)?;
    Ok(artifact)
}

fn open(artifact: &ModelArtifact) -> Result<OnlineAssignService<Transaction, Jaccard>, RockError> {
    OnlineAssignService::new(
        artifact,
        Jaccard,
        ServeConfig::default(),
        StalenessPolicy::default(),
    )
}

/// Work counts of one online pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Queries assigned.
    pub assign_calls: u64,
    /// Queries the service quarantined.
    pub quarantined: u64,
    /// Arrivals absorbed into clusters.
    pub absorbed: u64,
    /// Dirty links accumulated by the absorbs.
    pub dirty_links: u64,
    /// Bounded re-merge passes the staleness policy triggered.
    pub remerge_passes: u64,
    /// Merges those passes committed.
    pub merges: u64,
}

/// What one pass measured and decided.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every assign, seconds (`INFINITY` = failed).
    pub assign_s: Vec<f64>,
    /// Latency of every absorb, seconds (`INFINITY` = failed).
    pub absorb_s: Vec<f64>,
    /// Wall time spent in the pass's batches, seconds.
    pub loop_s: f64,
    /// Arrivals per batch.
    pub batch: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned a typed error or were quarantined.
    pub failed: u64,
    /// Errors seen, for the log.
    pub errors: Vec<String>,
    /// Work counts.
    pub counts: PassCounts,
    /// Assignments and final digest, for the gate.
    pub image: OnlineImage,
}

impl Pass {
    /// A pass whose every operation failed because the model could not
    /// be opened (`detail` says why).
    pub fn failed(arrivals: &[Transaction], batch: usize, detail: String) -> Pass {
        let ops = arrivals.len() + arrivals.len() / batch;
        Pass {
            assign_s: vec![f64::INFINITY; arrivals.len()],
            absorb_s: vec![f64::INFINITY; arrivals.len() / batch],
            batch,
            attempted: ops as u64,
            failed: ops as u64,
            errors: vec![detail],
            ..Pass::default()
        }
    }

    fn record_assign(&mut self, served: Result<ServeBatch, RockError>, secs: f64) {
        self.attempted += 1;
        self.counts.assign_calls += 1;
        match served {
            Ok(batch) if batch.report.records_quarantined == 0 => {
                self.assign_s.push(secs);
                self.image
                    .assignments
                    .push(batch.assignments.first().copied().flatten());
                return;
            }
            Ok(batch) => {
                self.counts.quarantined += batch.report.records_quarantined;
                self.errors
                    .push(format!("query quarantined: {:?}", batch.report.quarantined));
            }
            Err(e) => self.errors.push(format!("assign: {e}")),
        }
        self.failed += 1;
        self.assign_s.push(f64::INFINITY);
        self.image.assignments.push(None);
    }

    fn record_absorb(&mut self, absorbed: &Result<UpdateOutcome, RockError>, secs: f64) {
        self.attempted += 1;
        match absorbed {
            Ok(outcome) => {
                self.absorb_s.push(secs);
                self.counts.absorbed += outcome.absorbed;
                self.counts.dirty_links += outcome.dirty_links;
            }
            Err(e) => {
                self.failed += 1;
                self.absorb_s.push(f64::INFINITY);
                self.errors.push(format!("absorb: {e}"));
            }
        }
    }
}

/// The evolving model a pass drives.
enum Live {
    /// The untraced path: the service itself.
    Service(OnlineAssignService<Transaction, Jaccard>),
    /// The traced path: the state and the current service snapshot.
    Parts(
        IncrementalRockState<Transaction>,
        AssignService<Transaction, Jaccard>,
    ),
}

impl Live {
    fn open(artifact: &ModelArtifact, traced: bool) -> Result<Live, RockError> {
        if !traced {
            return open(artifact).map(Live::Service);
        }
        let state = IncrementalRockState::from_artifact(artifact, StalenessPolicy::default())?;
        let service = AssignService::new(artifact, Jaccard, ServeConfig::default())?;
        Ok(Live::Parts(state, service))
    }

    fn state(&self) -> &IncrementalRockState<Transaction> {
        match self {
            Live::Service(online) => online.state(),
            Live::Parts(state, _) => state,
        }
    }
}

/// One whole pass over `arrivals` in batches of `batch` from the loaded
/// model, untraced through `OnlineAssignService` or traced through its
/// decomposed calls. Batch `b` is traced as operation `op_base + b`.
pub fn pass(
    tracer: &mut Tracer,
    op_base: u64,
    artifact: &ModelArtifact,
    arrivals: &[Transaction],
    batch: usize,
    traced: bool,
) -> Pass {
    let mut live = match Live::open(artifact, traced) {
        Ok(live) => live,
        Err(e) => return Pass::failed(arrivals, batch, e.to_string()),
    };
    let governor = RunGovernor::unlimited();
    let mut pass = Pass {
        batch,
        ..Pass::default()
    };
    for (b, queries) in arrivals.chunks_exact(batch).enumerate() {
        if !pass.run_batch(&mut live, &governor, tracer, op_base + b as u64, queries) {
            // An absorb failed and may have torn the model: the rest of
            // the pass counts as failed operations.
            let left = arrivals.len() - (b + 1) * batch;
            let ops = left + left / batch;
            pass.assign_s
                .extend(std::iter::repeat_n(f64::INFINITY, left));
            pass.absorb_s
                .extend(std::iter::repeat_n(f64::INFINITY, left / batch));
            pass.attempted += ops as u64;
            pass.failed += ops as u64;
            break;
        }
    }
    let provenance = live.state().provenance();
    pass.counts.remerge_passes = provenance.remerges;
    pass.counts.merges = provenance.remerge_merges;
    pass.image.digest = live.state().digest();
    pass
}

/// Queries plus arrivals that the successful operations of `passes`
/// handled, per second of their loop time. A failed assign or absorb
/// (an `INFINITY` sample) spends loop time but handles no points.
pub fn points_per_s(passes: &[Pass]) -> f64 {
    let ok = |samples: &[f64]| samples.iter().filter(|s| s.is_finite()).count();
    let points: usize = passes
        .iter()
        .map(|p| ok(&p.assign_s) + ok(&p.absorb_s) * p.batch)
        .sum();
    let loop_s: f64 = passes.iter().map(|p| p.loop_s).sum();
    points as f64 / loop_s
}

impl Pass {
    /// One batch: each query assigned alone, then the batch absorbed.
    /// Returns whether the absorb succeeded.
    fn run_batch(
        &mut self,
        live: &mut Live,
        governor: &RunGovernor,
        tracer: &mut Tracer,
        op: u64,
        batch: &[Transaction],
    ) -> bool {
        let start = Instant::now();
        let ok = match live {
            Live::Service(online) => {
                for query in batch {
                    let t = Instant::now();
                    let served = online.assign_batch(std::slice::from_ref(query));
                    self.record_assign(served, t.elapsed().as_secs_f64());
                }
                let t = Instant::now();
                let absorbed = online.absorb_batch(batch, governor);
                self.record_absorb(&absorbed, t.elapsed().as_secs_f64());
                absorbed.is_ok()
            }
            Live::Parts(state, service) => {
                let root = tracer.enter("online.batch", op);
                for query in batch {
                    let t = Instant::now();
                    let served = tracer.span("serve.assign", op, || {
                        service.assign_batch(std::slice::from_ref(query))
                    });
                    self.record_assign(served, t.elapsed().as_secs_f64());
                }
                let t = Instant::now();
                let absorbed = tracer
                    .span("incremental.update", op, || {
                        state.update(batch, &Jaccard, governor)
                    })
                    .and_then(|outcome| {
                        if outcome.absorbed > 0 || !outcome.remerged.is_empty() {
                            let artifact =
                                tracer.span("snapshot.to_artifact", op, || state.to_artifact())?;
                            *service = tracer.span("snapshot.service_new", op, || {
                                AssignService::new(&artifact, Jaccard, ServeConfig::default())
                            })?;
                        }
                        Ok(outcome)
                    });
                self.record_absorb(&absorbed, t.elapsed().as_secs_f64());
                tracer.exit(root);
                absorbed.is_ok()
            }
        };
        self.loop_s += start.elapsed().as_secs_f64();
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BATCH: usize = 64;

    fn pass(assign_s: Vec<f64>, absorb_s: Vec<f64>) -> Pass {
        Pass {
            assign_s,
            absorb_s,
            loop_s: 1.0,
            batch: BATCH,
            ..Pass::default()
        }
    }

    #[test]
    fn failed_operations_handle_no_points() {
        let ok = pass(vec![1e-4; 2 * BATCH], vec![1e-2; 2]);
        assert_eq!(points_per_s(std::slice::from_ref(&ok)), (4 * BATCH) as f64);

        // The second absorb fails and fills the rest of the pass.
        let mut assign_s = vec![1e-4; BATCH];
        assign_s.extend(vec![f64::INFINITY; BATCH]);
        let torn = pass(assign_s, vec![1e-2, f64::INFINITY]);
        assert_eq!(
            points_per_s(std::slice::from_ref(&torn)),
            (2 * BATCH) as f64
        );

        // A quarantined query counts as no point either.
        let mut assign_s = vec![1e-4; 2 * BATCH];
        assign_s[0] = f64::INFINITY;
        let quarantined = pass(assign_s, vec![1e-2; 2]);
        assert!(points_per_s(&[quarantined]) < points_per_s(&[ok]));

        assert!(points_per_s(&[Pass::failed(&[], BATCH, String::new())]).is_nan());
    }
}
