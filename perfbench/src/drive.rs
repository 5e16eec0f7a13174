//! The load generator: one thread per connection advances that
//! connection's slots round-robin, one request per turn, either on a
//! fixed schedule (open loop) or as fast as replies come back (closed
//! loop).
//!
//! In the open loop every request has a due time, `start + k / rate`.
//! Its latency is measured from that due time, so a stall also counts
//! against the requests it delays; how far behind the due time a request
//! actually went out is kept as the generator's lateness.

use crate::trace::Recorder;
use crate::workload::{EvalCase, Plan, SlotSpec, Workload};
use qhorn_bench::load::Population;
use qhorn_core::query::equiv::equivalent;
use qhorn_core::{Obj, Response};
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::{Client, ServiceError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Outcome checks accumulated while driving.
#[derive(Default)]
pub struct Checks {
    /// Compliant dialogues whose learned query matched their target.
    pub learned_ok: u64,
    /// Compliant dialogues that verified.
    pub verified_ok: u64,
    /// Dialogues abandoned by their scripted user.
    pub abandoned: u64,
    /// Noisy dialogues that sent `correct`.
    pub corrected: u64,
    /// `(eval case, FNV of the answer ids)` of every batch reply.
    pub batch_replies: Vec<(usize, u64)>,
    /// Every failed check, described.
    pub failures: Vec<String>,
}

impl Checks {
    fn fail(&mut self, what: String) {
        if self.failures.len() < 32 {
            self.failures.push(what);
        } else if self.failures.len() == 32 {
            self.failures.push("(further failures omitted)".into());
        }
    }

    /// Folds another connection's checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.learned_ok += other.learned_ok;
        self.verified_ok += other.verified_ok;
        self.abandoned += other.abandoned;
        self.corrected += other.corrected;
        self.batch_replies.extend(other.batch_replies);
        for f in other.failures {
            self.fail(f);
        }
    }
}

#[derive(Clone, Debug)]
enum Next {
    Create,
    Answer { question: Obj, index: usize },
    Correct,
    Verify,
    Close,
    Done,
}

/// One scripted user's dialogue as a state machine: [`Dialogue::request`]
/// gives the next request, [`Dialogue::on_reply`] consumes its reply.
struct Dialogue {
    plan: Plan,
    rng: SmallRng,
    abandon_after: u64,
    session: Option<u64>,
    next: Next,
    flips: Vec<(usize, Response)>,
    corrected: bool,
    questions: u64,
}

impl Dialogue {
    fn new(plan: Plan) -> Dialogue {
        // The same coin flips as `qhorn_bench::load`'s scripted users.
        let mut rng = SmallRng::seed_from_u64(plan.seed);
        let abandon_after = 1 + rng.gen_range(0..4u64);
        Dialogue {
            plan,
            rng,
            abandon_after,
            session: None,
            next: Next::Create,
            flips: Vec::new(),
            corrected: false,
            questions: 0,
        }
    }

    fn session(&self) -> u64 {
        self.session
            .expect("requests after create carry the session")
    }

    fn request(&mut self) -> Request {
        match &self.next {
            Next::Create => Request::CreateSession {
                dataset: self.plan.dataset.clone(),
                size: self.plan.size,
                learner: self.plan.learner,
                max_questions: None,
            },
            Next::Answer { question, index } => {
                let honest = self.plan.target.eval(question);
                let noisy = self.plan.population == Population::NoisyThenCorrected
                    && !self.corrected
                    && self.rng.gen_bool(0.3);
                let response = if noisy {
                    self.flips.push((*index, honest));
                    honest.negate()
                } else {
                    honest
                };
                self.questions += 1;
                Request::Answer {
                    session: self.session(),
                    response,
                }
            }
            Next::Correct => {
                self.corrected = true;
                Request::Correct {
                    session: self.session(),
                    corrections: std::mem::take(&mut self.flips),
                }
            }
            Next::Verify => Request::Verify {
                session: self.session(),
                query: None,
            },
            Next::Close => Request::CloseSession {
                session: self.session(),
            },
            Next::Done => unreachable!("finished dialogues are replaced before sending"),
        }
    }

    fn what(&self) -> String {
        format!(
            "{} {} dialogue over {} (session {:?})",
            self.plan.population.name(),
            self.plan.learner.wire_name(),
            self.plan.dataset,
            self.session
        )
    }

    fn on_reply(&mut self, reply: Result<Reply, ServiceError>, checks: &mut Checks) {
        let compliant = self.plan.population == Population::Compliant;
        let step = match reply {
            Ok(Reply::Created { session, step }) => {
                self.session = Some(session);
                step
            }
            Ok(Reply::Step { step, .. }) => step,
            Ok(Reply::Closed { .. }) => {
                self.next = Next::Done;
                return;
            }
            Ok(other) => {
                checks.fail(format!("{}: unexpected reply {other:?}", self.what()));
                self.give_up();
                return;
            }
            Err(e) => {
                checks.fail(format!("{}: {e}", self.what()));
                self.give_up();
                return;
            }
        };
        self.next = match step {
            StepReply::Question {
                question, index, ..
            } => {
                if self.plan.population == Population::Abandoning
                    && self.questions >= self.abandon_after
                {
                    checks.abandoned += 1;
                    Next::Close
                } else {
                    Next::Answer { question, index }
                }
            }
            StepReply::Learned { query_json, .. } => {
                if self.plan.population == Population::NoisyThenCorrected
                    && !self.corrected
                    && !self.flips.is_empty()
                {
                    checks.corrected += 1;
                    Next::Correct
                } else {
                    if compliant {
                        if equivalent(&query_json, &self.plan.target) {
                            checks.learned_ok += 1;
                        } else {
                            checks.fail(format!(
                                "{}: learned {} but the target is {}",
                                self.what(),
                                qhorn_lang::printer::to_ascii(&query_json),
                                qhorn_lang::printer::to_ascii(&self.plan.target)
                            ));
                        }
                    }
                    Next::Verify
                }
            }
            StepReply::Verified { verified } => {
                if compliant {
                    if verified {
                        checks.verified_ok += 1;
                    } else {
                        checks.fail(format!("{}: did not verify", self.what()));
                    }
                }
                Next::Close
            }
            StepReply::Failed { message } => {
                checks.fail(format!("{}: learning failed: {message}", self.what()));
                Next::Close
            }
        };
    }

    fn give_up(&mut self) {
        self.next = match (&self.next, self.session) {
            (Next::Close, _) | (_, None) => Next::Done,
            _ => Next::Close,
        };
    }
}

enum Slot {
    Dialogues {
        queue: VecDeque<Plan>,
        current: Option<Box<Dialogue>>,
    },
    Evals {
        order: Vec<usize>,
        cursor: usize,
    },
}

/// Latency samples of one phase, keyed by request kind.
#[derive(Default)]
pub struct Samples {
    /// Per request kind: `(when it was due, ns since the run's epoch;
    /// latency, µs)`.
    pub by_kind: BTreeMap<&'static str, Vec<(u64, f64)>>,
    /// How late each open-loop request went out, µs.
    pub late: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Protocol errors, transport failures and refusals.
    pub failed: u64,
    /// Wall time of the phase(s).
    pub wall: Duration,
}

impl Samples {
    /// Folds in another phase's samples; wall times add up, so merge the
    /// phases of one connection, and rates per connection.
    pub fn merge(&mut self, other: Samples) {
        for (k, v) in other.by_kind {
            self.by_kind.entry(k).or_default().extend(v);
        }
        self.late.extend(other.late);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall += other.wall;
    }

    /// Samples of one kind in the order they were due (`None` for every
    /// kind).
    pub fn in_time_order(&self, kind: Option<&str>) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = match kind {
            Some(k) => self.by_kind.get(k).cloned().unwrap_or_default(),
            None => self.by_kind.values().flatten().copied().collect(),
        };
        v.sort_by_key(|&(t, _)| t);
        v
    }

    /// Latencies of one kind (`None` for every kind), ascending.
    pub fn sorted(&self, kind: Option<&str>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .in_time_order(kind)
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// How one phase paces its requests.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Due times `start + offset + k / rate`.
    Open {
        /// Requests per second on this connection.
        rate: f64,
        /// Shift of this connection's schedule against the others'.
        offset: Duration,
    },
    /// Next request as soon as the previous reply is in.
    Closed,
}

/// Sleeping overshoots by the timer slack (about 50 µs on Linux), which
/// would count as the generator's own lateness; so sleep until shortly
/// before `due` and yield the processor for the rest.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One connection and everything it drives.
pub struct Conn {
    client: Client,
    slots: Vec<Slot>,
    order: Vec<usize>,
    cursor: usize,
    evals: Vec<EvalCase>,
    epoch: Instant,
    next_request: u64,
    /// Outcome checks.
    pub checks: Checks,
    /// `(request, reply)` pairs kept for the codec replay.
    pub exchanges: Vec<(Request, Reply)>,
    /// Client-side spans of the traced phase.
    pub spans: Recorder,
    record: bool,
}

/// Keep every `EXCHANGE_STRIDE`-th exchange for the codec replay, at most
/// `MAX_EXCHANGES` of them.
const EXCHANGE_STRIDE: u64 = 4;
const MAX_EXCHANGES: usize = 4_096;

impl Conn {
    /// Connection `index` of `workload` (0 = TCP, 1 = HTTP); sample times
    /// count from `epoch`.
    pub fn new(
        client: Client,
        workload: &Workload,
        index: usize,
        epoch: Instant,
        spans: Recorder,
    ) -> Conn {
        let slots = workload.conns[index]
            .iter()
            .map(|s| match s {
                SlotSpec::Dialogues(plans) => Slot::Dialogues {
                    queue: plans.clone(),
                    current: None,
                },
                SlotSpec::Evals(order) => Slot::Evals {
                    order: order.clone(),
                    cursor: 0,
                },
            })
            .collect();
        Conn {
            client,
            slots,
            order: workload.order[index].clone(),
            cursor: 0,
            evals: workload.evals.clone(),
            epoch,
            next_request: 0,
            checks: Checks::default(),
            exchanges: Vec::new(),
            spans,
            record: false,
        }
    }

    /// Turns recording of dialogues, exchanges and spans on or off.
    pub fn set_record(&mut self, on: bool) {
        self.record = on;
        self.spans.set_enabled(on);
    }

    /// Picks the next request round-robin; `None` once every slot is spent.
    fn next_request(&mut self) -> Option<(usize, Request)> {
        for _ in 0..self.order.len() {
            let i = self.order[self.cursor % self.order.len()];
            self.cursor += 1;
            match &mut self.slots[i] {
                Slot::Dialogues { queue, current } => {
                    if current
                        .as_ref()
                        .is_none_or(|d| matches!(d.next, Next::Done))
                    {
                        *current = queue.pop_front().map(|p| Box::new(Dialogue::new(p)));
                    }
                    if let Some(d) = current {
                        return Some((i, d.request()));
                    }
                }
                Slot::Evals { order, cursor } => {
                    let case = &self.evals[order[*cursor % order.len()]];
                    *cursor += 1;
                    let req = Request::EvaluateBatch {
                        session: None,
                        dataset: Some(case.dataset.clone()),
                        size: case.size,
                        query: Some(case.query.clone()),
                        workers: 1,
                    };
                    return Some((i, req));
                }
            }
        }
        None
    }

    fn on_reply(&mut self, slot: usize, req: &Request, reply: Result<Reply, ServiceError>) {
        match &mut self.slots[slot] {
            Slot::Dialogues { current, .. } => {
                let d = current.as_mut().expect("a request was sent for it");
                d.on_reply(reply, &mut self.checks);
            }
            Slot::Evals { order, cursor } => {
                let case = order[(*cursor - 1) % order.len()];
                match reply {
                    Ok(Reply::Batch { answers, .. }) => {
                        let h = crate::stats::fnv1a(answers.iter().flat_map(|a| a.to_le_bytes()));
                        self.checks.batch_replies.push((case, h));
                    }
                    Ok(other) => self
                        .checks
                        .fail(format!("{}: unexpected reply {other:?}", req.kind())),
                    Err(e) => self.checks.fail(format!("{}: {e}", req.kind())),
                }
            }
        }
    }

    /// Sends one request and feeds its reply back; returns whether it
    /// failed and the time it took.
    fn exchange(&mut self, slot: usize, req: Request) -> (bool, Duration) {
        let id = self.next_request;
        self.next_request += 1;
        let span = self.spans.begin(req.kind(), None, id);
        let start = Instant::now();
        let reply = self.client.request(&req);
        let took = start.elapsed();
        self.spans.end(span);
        let failed = !matches!(&reply, Ok(r) if !matches!(r, Reply::Error { .. }));
        if self.record && id.is_multiple_of(EXCHANGE_STRIDE) && self.exchanges.len() < MAX_EXCHANGES
        {
            if let Ok(r) = &reply {
                self.exchanges.push((req.clone(), r.clone()));
            }
        }
        self.on_reply(slot, &req, reply);
        (failed, took)
    }

    /// Drives requests for `duration` under `pace`, starting at `start`.
    pub fn run(&mut self, pace: Pace, start: Instant, duration: Duration) -> Samples {
        let mut samples = Samples::default();
        let end = start + duration;
        let mut k: u64 = 0;
        loop {
            let due = match pace {
                Pace::Open { rate, offset } => {
                    let due = start + offset + Duration::from_secs_f64(k as f64 / rate);
                    k += 1;
                    if due >= end {
                        break;
                    }
                    wait_until(due);
                    Some(due)
                }
                Pace::Closed => {
                    if Instant::now() >= end {
                        break;
                    }
                    None
                }
            };
            let Some((slot, req)) = self.next_request() else {
                break;
            };
            let kind = req.kind();
            let sent = Instant::now();
            let (failed, took) = self.exchange(slot, req);
            let (from, latency) = match due {
                Some(due) => {
                    samples
                        .late
                        .push(crate::stats::us(sent.saturating_duration_since(due)));
                    (due, sent.saturating_duration_since(due) + took)
                }
                None => (sent, took),
            };
            let at = from.saturating_duration_since(self.epoch).as_nanos() as u64;
            samples
                .by_kind
                .entry(kind)
                .or_default()
                .push((at, crate::stats::us(latency)));
            samples.attempted += 1;
            samples.failed += u64::from(failed);
        }
        samples.wall = start.elapsed();
        samples
    }

    /// Closes every session still open; returns the number of requests
    /// that failed.
    pub fn close_all(&mut self) -> u64 {
        let mut failed = 0;
        let mut open: Vec<u64> = Vec::new();
        for slot in &mut self.slots {
            if let Slot::Dialogues {
                current: Some(d), ..
            } = slot
            {
                if !matches!(d.next, Next::Done) {
                    if let Some(s) = d.session {
                        open.push(s);
                    }
                }
                d.next = Next::Done;
            }
        }
        for session in open {
            match self.client.request(&Request::CloseSession { session }) {
                Ok(Reply::Closed { .. }) => {}
                other => {
                    failed += 1;
                    self.checks.fail(format!(
                        "close_session {session}: unexpected reply {other:?}"
                    ));
                }
            }
        }
        failed
    }

    /// The underlying client, for the after-run reads.
    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }
}
