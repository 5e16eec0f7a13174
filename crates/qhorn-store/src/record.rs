//! The record model: what the log appends and what recovery rebuilds.
//!
//! A session's durable history is a sequence of [`LogRecord`]s; replaying
//! them (in global `seq` order, on top of an optional snapshot) rebuilds a
//! [`PersistedSession`] — the log *is* the membership-query transcript, so
//! recovery is replay.

use qhorn_core::{Obj, Query, Response};
use qhorn_engine::persist::corrections;
use qhorn_engine::session::{apply_corrections, Exchange, LearnerKind};
use qhorn_json::{FromJson, Json, JsonError, ToJson};
use qhorn_relation::DatasetDef;
use std::collections::BTreeMap;

/// How a session was opened — enough for the service to rebuild the
/// dataset and relaunch the right learner on recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionMeta {
    /// Catalog dataset name.
    pub dataset: String,
    /// Object count for generated datasets (`1..=MAX_SIZE` of the
    /// service's catalog; its wire layer substitutes the default for
    /// absent fields). Logs written before explicit size validation may
    /// carry `0` (the old "default" encoding); the service normalizes
    /// that to its default when it restores such a session.
    pub size: usize,
    /// Which learner runs the session.
    pub learner: LearnerKind,
    /// Optional hard question budget.
    pub max_questions: Option<usize>,
}

qhorn_json::wire! {
    struct SessionMeta {
        dataset: String,
        size: usize,
        learner: LearnerKind,
        max_questions: Option<usize>,
    }
}

/// One durable event in a session's life. Records carry the session id;
/// the store stamps each with a global monotonic sequence number when it
/// frames the record onto disk.
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// A session was opened.
    SessionCreated {
        /// The session id.
        id: u64,
        /// How to rebuild it.
        meta: SessionMeta,
    },
    /// The user answered a membership question.
    ExchangeAppended {
        /// The session id.
        id: u64,
        /// The answered exchange.
        exchange: Exchange,
    },
    /// The user corrected earlier answers (indices are transcript
    /// positions, as the protocol ships them).
    Corrected {
        /// The session id.
        id: u64,
        /// `(question index, corrected label)` pairs.
        corrections: Vec<(usize, Response)>,
    },
    /// Learning completed with this query.
    QueryLearned {
        /// The session id.
        id: u64,
        /// The learned query.
        query: Query,
    },
    /// A verification run finished with this outcome (§4's learn-then-
    /// verify dialogue); recovery restores the session as verified
    /// without needing a compaction snapshot.
    Verified {
        /// The session id.
        id: u64,
        /// `true` iff the user agreed with every expected label.
        verified: bool,
    },
    /// The session was explicitly closed; recovery drops it.
    SessionClosed {
        /// The session id.
        id: u64,
    },
    /// A user-uploaded dataset was registered with the catalog; recovery
    /// re-registers it so sessions created over it can rebuild their
    /// stores. Compaction re-appends the current registrations into the
    /// fresh log (datasets are not part of session snapshots).
    DatasetRegistered {
        /// The complete definition (name, relation, propositions, hints).
        def: DatasetDef,
    },
    /// A user-uploaded dataset was dropped; recovery forgets it.
    DatasetDropped {
        /// The dropped dataset's catalog name.
        name: String,
    },
    /// A snapshot file was written covering everything up to
    /// `through_seq` (informational marker; recovery ignores it).
    SnapshotWritten {
        /// Last record sequence number the snapshot covers.
        through_seq: u64,
        /// Sessions the snapshot holds.
        sessions: u64,
    },
}

impl LogRecord {
    /// The session this record belongs to (`None` for store-level
    /// markers).
    #[must_use]
    pub fn session_id(&self) -> Option<u64> {
        match self {
            LogRecord::SessionCreated { id, .. }
            | LogRecord::ExchangeAppended { id, .. }
            | LogRecord::Corrected { id, .. }
            | LogRecord::QueryLearned { id, .. }
            | LogRecord::Verified { id, .. }
            | LogRecord::SessionClosed { id } => Some(*id),
            LogRecord::DatasetRegistered { .. }
            | LogRecord::DatasetDropped { .. }
            | LogRecord::SnapshotWritten { .. } => None,
        }
    }

    /// Serializes as the framed payload, with the store-assigned `seq`
    /// first so a human scanning the log sees ordering at a glance.
    /// Written straight into the payload: `{"seq":N,` and then the
    /// record's own members.
    #[must_use]
    pub fn to_payload(&self, seq: u64) -> Vec<u8> {
        let mut out = String::with_capacity(128);
        let mut w = qhorn_json::wire::ObjectWriter::open(&mut out);
        seq.write_json(w.member("\"seq\":"));
        w.flatten(|out| self.write_json(out));
        w.close();
        out.into_bytes()
    }

    /// Parses a framed payload back into `(seq, record)`.
    ///
    /// # Errors
    /// [`JsonError`] on a payload that is not a well-formed record.
    pub fn from_payload(bytes: &[u8]) -> Result<(u64, LogRecord), JsonError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| JsonError::msg("record payload is not UTF-8"))?;
        let j = Json::parse(text)?;
        let seq = u64::from_json(j.field("seq")?)?;
        Ok((seq, LogRecord::from_json(&j)?))
    }
}

qhorn_json::wire! {
    enum LogRecord tag "kind" "record kind" {
        SessionCreated = "session_created" { id: u64, meta: SessionMeta },
        ExchangeAppended = "exchange" { id: u64, exchange: Exchange },
        Corrected = "corrected" {
            id: u64,
            corrections: Vec<(usize, Response)> [with = corrections],
        },
        QueryLearned = "query_learned" { id: u64, query: Query },
        Verified = "verified" { id: u64, verified: bool },
        SessionClosed = "session_closed" { id: u64 },
        DatasetRegistered = "dataset_registered" { def: DatasetDef },
        DatasetDropped = "dataset_dropped" { name: String },
        SnapshotWritten = "snapshot_written" { through_seq: u64, sessions: u64 },
    }
}

/// A session's full durable state, as recovery rebuilds it (and as
/// snapshot files store it).
#[derive(Clone, Debug, PartialEq)]
pub struct PersistedSession {
    /// The session id.
    pub id: u64,
    /// How to rebuild the dataset/learner.
    pub meta: SessionMeta,
    /// Snapshots written before a `Correct` index became a transcript
    /// position list here the questions the user was shown, in order
    /// (with a question in flight past `answered`), and may hold
    /// auto-answered exchanges between them in `transcript`. The store
    /// folds such an entry into the current form when it reads the
    /// snapshot; `Some` only on an entry whose list does not fold, which
    /// a restore refuses. New entries never write it.
    pub asked: Option<Vec<Obj>>,
    /// How many of `asked` the user answered, on such an entry.
    pub answered: Option<usize>,
    /// Verification result, when one ran (replayed from
    /// [`LogRecord::Verified`] and preserved by snapshots).
    pub verified: Option<bool>,
    /// The exchanges the user answered, in order, corrections applied.
    /// A `Correct` index is a position here.
    pub transcript: Vec<Exchange>,
    /// The learned query, when learning completed.
    pub learned: Option<Query>,
}

impl PersistedSession {
    /// An empty session fresh from a [`LogRecord::SessionCreated`].
    #[must_use]
    pub fn new(id: u64, meta: SessionMeta) -> Self {
        PersistedSession {
            id,
            meta,
            asked: None,
            answered: None,
            verified: None,
            transcript: Vec::new(),
            learned: None,
        }
    }

    /// Folds an entry written with an `asked` list into the current form:
    /// the list is cut to the answered questions, each is matched in
    /// order to the first later transcript entry holding it, and only
    /// the matched entries are kept. The auto-answered ones in between
    /// go, since a replay answers them again. An entry whose list is not
    /// a subsequence of its transcript's questions is left as it is.
    fn fold_asked(&mut self) {
        let Some(asked) = &self.asked else { return };
        let answered = asked.len().min(self.answered.unwrap_or(asked.len()));
        let mut kept = Vec::with_capacity(answered);
        let mut rest = self.transcript.iter();
        for question in &asked[..answered] {
            match rest.by_ref().find(|e| e.question == *question) {
                Some(e) => kept.push(e.clone()),
                None => return,
            }
        }
        self.transcript = kept;
        self.asked = None;
        self.answered = None;
    }
}

qhorn_json::wire! {
    struct PersistedSession {
        id: u64,
        meta: SessionMeta,
        asked: Option<Vec<Obj>> [skip],
        answered: Option<usize> [skip],
        verified: Option<bool>,
        transcript: Vec<Exchange>,
        learned: Option<Query>,
    }
}

/// One snapshot-file entry: a session's state plus the last log sequence
/// number that state reflects. Recovery applies a log record to a session
/// iff `record.seq > through_seq`, so snapshot + replay applies each
/// record once, whichever segments a compaction left behind.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    /// Last record sequence number reflected in `session`.
    pub through_seq: u64,
    /// The captured state.
    pub session: PersistedSession,
}

qhorn_json::wire! {
    struct SnapshotEntry { through_seq: u64, session: PersistedSession }
}

/// Replay state: sessions being rebuilt, keyed by id, plus the registered
/// dataset definitions (keyed by name, last registration wins).
pub(crate) struct Replayer {
    sessions: BTreeMap<u64, SnapshotEntry>,
    datasets: BTreeMap<String, DatasetDef>,
    /// Highest session id ever seen, including closed sessions — the
    /// registry resumes id assignment above this so a closed id is never
    /// reused (reuse would make old log records apply to the new session).
    max_id: u64,
}

impl Replayer {
    pub(crate) fn new() -> Self {
        Replayer {
            sessions: BTreeMap::new(),
            datasets: BTreeMap::new(),
            max_id: 0,
        }
    }

    /// Seeds the replayer from snapshot-file entries, folding any
    /// written with an `asked` list (see [`PersistedSession::asked`]).
    pub(crate) fn seed(&mut self, entries: impl IntoIterator<Item = SnapshotEntry>) {
        for mut e in entries {
            e.session.fold_asked();
            self.max_id = self.max_id.max(e.session.id);
            self.sessions.insert(e.session.id, e);
        }
    }

    /// Applies one log record; records at or below a session's
    /// `through_seq` are already reflected in its snapshot and skipped.
    pub(crate) fn apply(&mut self, seq: u64, rec: LogRecord) {
        if let Some(id) = rec.session_id() {
            self.max_id = self.max_id.max(id);
        }
        match rec {
            LogRecord::SessionCreated { id, meta } => {
                let entry = self.sessions.entry(id).or_insert_with(|| SnapshotEntry {
                    through_seq: 0,
                    session: PersistedSession::new(id, meta.clone()),
                });
                if seq <= entry.through_seq {
                    return;
                }
                entry.session.meta = meta;
            }
            LogRecord::ExchangeAppended { id, exchange } => {
                if let Some(entry) = self.fresh(id, seq) {
                    entry.session.transcript.push(exchange);
                }
            }
            LogRecord::Corrected { id, corrections } => {
                if let Some(entry) = self.fresh(id, seq) {
                    let s = &mut entry.session;
                    apply_corrections(&mut s.transcript, &corrections);
                    // A correction restarts learning; the replayed learner
                    // writes a fresh `QueryLearned` when it completes.
                    s.learned = None;
                    s.verified = None;
                }
            }
            LogRecord::QueryLearned { id, query } => {
                if let Some(entry) = self.fresh(id, seq) {
                    entry.session.learned = Some(query);
                }
            }
            LogRecord::Verified { id, verified } => {
                if let Some(entry) = self.fresh(id, seq) {
                    entry.session.verified = Some(verified);
                }
            }
            LogRecord::SessionClosed { id } => {
                // Removal at apply time: a later `SessionCreated` for the
                // same id (only possible for genuinely new sessions, since
                // id assignment resumes above `max_id`) starts fresh.
                self.sessions.remove(&id);
            }
            // Datasets are not snapshot-covered, so no `through_seq`
            // gating: records apply in seq order, last one wins.
            LogRecord::DatasetRegistered { def } => {
                self.datasets.insert(def.name.clone(), def);
            }
            LogRecord::DatasetDropped { name } => {
                self.datasets.remove(&name);
            }
            LogRecord::SnapshotWritten { .. } => {}
        }
    }

    /// The session entry, if it exists and `seq` is newer than its
    /// snapshot coverage.
    fn fresh(&mut self, id: u64, seq: u64) -> Option<&mut SnapshotEntry> {
        self.sessions.get_mut(&id).filter(|e| seq > e.through_seq)
    }

    /// Highest session id ever seen (live or closed).
    pub(crate) fn max_id(&self) -> u64 {
        self.max_id
    }

    /// Drains the registered (and not since dropped) dataset definitions,
    /// in name order.
    pub(crate) fn take_datasets(&mut self) -> Vec<DatasetDef> {
        std::mem::take(&mut self.datasets).into_values().collect()
    }

    /// Finishes replay: live sessions in id order.
    pub(crate) fn finish(self) -> Vec<PersistedSession> {
        self.sessions.into_values().map(|e| e.session).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhorn_lang::parse_with_arity;

    fn meta() -> SessionMeta {
        SessionMeta {
            dataset: "chocolates".into(),
            size: 30,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(100),
        }
    }

    fn exchange(bits: &str, response: Response) -> Exchange {
        Exchange {
            question: Obj::from_bits(bits),
            from_store: false,
            response,
        }
    }

    fn dataset_def() -> DatasetDef {
        qhorn_relation::datasets::chocolates::dataset_def("my-shop")
    }

    #[test]
    fn records_round_trip_through_payloads() {
        let records = [
            LogRecord::SessionCreated {
                id: 3,
                meta: meta(),
            },
            LogRecord::ExchangeAppended {
                id: 3,
                exchange: exchange("110 011", Response::Answer),
            },
            LogRecord::Corrected {
                id: 3,
                corrections: vec![(0, Response::NonAnswer), (2, Response::Answer)],
            },
            LogRecord::QueryLearned {
                id: 3,
                query: parse_with_arity("all x1; some x2 x3", 3).unwrap(),
            },
            LogRecord::Verified {
                id: 3,
                verified: true,
            },
            LogRecord::SessionClosed { id: 3 },
            LogRecord::DatasetRegistered { def: dataset_def() },
            LogRecord::DatasetDropped {
                name: "my-shop".into(),
            },
            LogRecord::SnapshotWritten {
                through_seq: 41,
                sessions: 2,
            },
        ];
        for (i, rec) in records.iter().enumerate() {
            let payload = rec.to_payload(i as u64 + 1);
            let (seq, back) = LogRecord::from_payload(&payload).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn replay_builds_corrected_state() {
        let mut r = Replayer::new();
        r.apply(
            1,
            LogRecord::SessionCreated {
                id: 1,
                meta: meta(),
            },
        );
        r.apply(
            2,
            LogRecord::ExchangeAppended {
                id: 1,
                exchange: exchange("111", Response::Answer),
            },
        );
        r.apply(
            3,
            LogRecord::ExchangeAppended {
                id: 1,
                exchange: exchange("001", Response::NonAnswer),
            },
        );
        let q = parse_with_arity("all x1", 3).unwrap();
        r.apply(
            4,
            LogRecord::QueryLearned {
                id: 1,
                query: q.clone(),
            },
        );
        r.apply(
            5,
            LogRecord::Corrected {
                id: 1,
                corrections: vec![(0, Response::NonAnswer)],
            },
        );
        r.apply(
            6,
            LogRecord::QueryLearned {
                id: 1,
                query: q.clone(),
            },
        );
        let sessions = r.finish();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.transcript.len(), 2);
        assert_eq!(s.transcript[0].response, Response::NonAnswer);
        assert_eq!(s.transcript[1].response, Response::NonAnswer);
        assert_eq!(s.learned.as_ref(), Some(&q));
    }

    #[test]
    fn replay_skips_records_covered_by_the_snapshot() {
        let mut r = Replayer::new();
        let mut snap = PersistedSession::new(7, meta());
        snap.transcript.push(exchange("111", Response::Answer));
        r.seed(vec![SnapshotEntry {
            through_seq: 10,
            session: snap,
        }]);
        // Seq 9 is already in the snapshot; applying it again must not
        // duplicate the exchange.
        r.apply(
            9,
            LogRecord::ExchangeAppended {
                id: 7,
                exchange: exchange("111", Response::Answer),
            },
        );
        r.apply(
            11,
            LogRecord::ExchangeAppended {
                id: 7,
                exchange: exchange("000", Response::NonAnswer),
            },
        );
        let sessions = r.finish();
        assert_eq!(sessions[0].transcript.len(), 2);
    }

    /// A snapshot entry written with an `asked` list: `transcript` over
    /// `asked` questions, `answered` of them answered.
    fn legacy(transcript: &[(&str, Response)], asked: &[&str], answered: usize) -> SnapshotEntry {
        let mut session = PersistedSession::new(7, meta());
        session.transcript = transcript
            .iter()
            .map(|&(bits, r)| exchange(bits, r))
            .collect();
        session.asked = Some(asked.iter().map(|b| Obj::from_bits(b)).collect());
        session.answered = Some(answered);
        SnapshotEntry {
            through_seq: 10,
            session,
        }
    }

    fn questions(session: &PersistedSession) -> Vec<Obj> {
        session
            .transcript
            .iter()
            .map(|e| e.question.clone())
            .collect()
    }

    #[test]
    fn a_question_in_flight_in_a_snapshot_is_not_asked_twice() {
        let mut r = Replayer::new();
        r.seed([legacy(&[("111", Response::Answer)], &["111", "000"], 1)]);
        r.apply(
            11,
            LogRecord::ExchangeAppended {
                id: 7,
                exchange: exchange("000", Response::NonAnswer),
            },
        );
        let sessions = r.finish();
        assert_eq!(
            questions(&sessions[0]),
            [Obj::from_bits("111"), Obj::from_bits("000")]
        );
        assert_eq!((&sessions[0].asked, sessions[0].answered), (&None, None));
    }

    /// Folding keeps the transcript entries the answered questions name,
    /// in order, and drops the auto-answered ones between them.
    #[test]
    fn a_legacy_snapshot_folds_to_the_answered_exchanges() {
        let mut r = Replayer::new();
        r.seed([legacy(
            &[
                ("011", Response::Answer),
                ("110", Response::NonAnswer),
                ("101", Response::NonAnswer),
                ("110", Response::Answer),
                ("011", Response::Answer),
            ],
            &["011", "101", "011"],
            3,
        )]);
        // Index 1 named the second asked question, `101`; after the fold
        // it is transcript position 1.
        r.apply(
            11,
            LogRecord::Corrected {
                id: 7,
                corrections: vec![(1, Response::Answer)],
            },
        );
        let s = &r.finish()[0];
        let bits = |b: &[&str]| -> Vec<Obj> { b.iter().map(|b| Obj::from_bits(b)).collect() };
        assert_eq!(questions(s), bits(&["011", "101", "011"]));
        assert_eq!(s.transcript[1].response, Response::Answer);
        assert_eq!((&s.asked, s.answered), (&None, None));
    }

    /// A list that is not, in order, a subsequence of the transcript's
    /// questions keeps its fields and its transcript.
    #[test]
    fn a_legacy_list_that_does_not_fold_is_kept() {
        for (asked, answered) in [(&["110", "011"][..], 2), (&["111"][..], 1)] {
            let entry = legacy(
                &[("011", Response::Answer), ("110", Response::Answer)],
                asked,
                answered,
            );
            let mut r = Replayer::new();
            r.seed([entry.clone()]);
            assert_eq!(r.finish(), [entry.session]);
        }
    }

    #[test]
    fn closed_sessions_stay_closed_even_with_a_stale_snapshot() {
        let mut r = Replayer::new();
        r.seed(vec![SnapshotEntry {
            through_seq: 5,
            session: PersistedSession::new(2, meta()),
        }]);
        r.apply(6, LogRecord::SessionClosed { id: 2 });
        assert!(r.finish().is_empty());
    }

    #[test]
    fn verification_outcomes_replay_and_corrections_reset_them() {
        let mut r = Replayer::new();
        r.apply(
            1,
            LogRecord::SessionCreated {
                id: 1,
                meta: meta(),
            },
        );
        let q = parse_with_arity("all x1", 3).unwrap();
        r.apply(2, LogRecord::QueryLearned { id: 1, query: q });
        r.apply(
            3,
            LogRecord::Verified {
                id: 1,
                verified: true,
            },
        );
        // A later correction invalidates the verification outcome…
        r.apply(
            4,
            LogRecord::Corrected {
                id: 1,
                corrections: vec![],
            },
        );
        // …and a fresh run can record a new one.
        r.apply(
            5,
            LogRecord::Verified {
                id: 1,
                verified: false,
            },
        );
        let sessions = r.finish();
        assert_eq!(sessions[0].verified, Some(false));
        assert_eq!(sessions[0].learned, None, "correction reset the query");
    }

    #[test]
    fn verified_records_below_snapshot_coverage_are_skipped() {
        let mut r = Replayer::new();
        let mut snap = PersistedSession::new(4, meta());
        snap.verified = Some(true);
        r.seed(vec![SnapshotEntry {
            through_seq: 10,
            session: snap,
        }]);
        // Stale record (already reflected in the snapshot): ignored.
        r.apply(
            9,
            LogRecord::Verified {
                id: 4,
                verified: false,
            },
        );
        assert_eq!(r.finish()[0].verified, Some(true));
    }

    #[test]
    fn dataset_records_replay_with_last_registration_winning() {
        let mut r = Replayer::new();
        r.apply(1, LogRecord::DatasetRegistered { def: dataset_def() });
        let mut renamed = dataset_def();
        renamed.name = "other".into();
        r.apply(2, LogRecord::DatasetRegistered { def: renamed });
        // Re-registration under the same name overwrites.
        let mut bigger = dataset_def();
        bigger
            .relation
            .push(qhorn_relation::NestedObject::new(
                qhorn_relation::DataTuple::new([qhorn_relation::Value::str("Extra")]),
                vec![],
            ))
            .unwrap();
        r.apply(3, LogRecord::DatasetRegistered { def: bigger });
        r.apply(
            4,
            LogRecord::DatasetDropped {
                name: "other".into(),
            },
        );
        let datasets = r.take_datasets();
        assert_eq!(datasets.len(), 1);
        assert_eq!(datasets[0].name, "my-shop");
        assert_eq!(datasets[0].relation.len(), 3, "last registration won");
        // Dropping an unknown name is a no-op.
        let mut r = Replayer::new();
        r.apply(1, LogRecord::DatasetDropped { name: "x".into() });
        assert!(r.take_datasets().is_empty());
    }

    #[test]
    fn unknown_session_records_are_ignored() {
        let mut r = Replayer::new();
        r.apply(
            1,
            LogRecord::ExchangeAppended {
                id: 99,
                exchange: exchange("1", Response::Answer),
            },
        );
        assert!(r.finish().is_empty());
    }
}
