//! The overlapped front-end: parse, admission, publication and matching
//! all running concurrently.
//!
//! The pipelined front-end ([`super::DocPump`]) overlaps matching with
//! parsing, but parse, admission and ring publication still serialize on
//! the document thread. Here that thread shrinks to the driver's
//! per-event step plus the **admission walk** ([`super::admit`]) — the
//! only inherently serial work: node numbering, symbol interning,
//! broadcast-filter decisions and global-trie [`TriePush`] sequencing for
//! prefix-shared plans — while
//!
//! * parse workers (the [`ParallelReader`] behind
//!   [`ParallelReader::next_batch`]) decode speculative chunks
//!   concurrently and deliver reconciled event batches, and
//! * publisher threads turn admitted windows into shard events — the
//!   `Arc` payload allocation lives here, off the serial path — and push
//!   them into **every** shard ring, tagged with their sequence window.
//!
//! Publishers race, so batches reach a ring out of document order; each
//! worker reorders locally by the [`SeqBatch`] windows, and the
//! `(event seq, group id)` watermark merge then restores single-threaded
//! emission order exactly as in the pipelined path. The output contract
//! is byte-identical across all front-ends: same matches, same callback
//! order, same statistics.
//!
//! Teardown discipline (this is what makes fault handling hang-free):
//! the job channel is dropped and every publisher joined **before** the
//! `DocEnd` batch is pushed — on the success *and* the error path — so
//! by the time workers see `DocEnd` every published window is in their
//! rings and they can always drain to the final watermark. A worker
//! panic arrives as a poisoned report (`DocState::ingest_report` closes
//! the rings, suppresses further callbacks and poisons the session); a
//! parse error stops admission but still sends `DocEnd` at the last
//! admitted sequence number, so the workers quiesce and the error
//! surfaces cleanly.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::par::{ParStats, ParallelConfig, ParallelReader};
use vitex_xmlsax::probe::ProbeHandle;
use vitex_xmlsax::XmlEvent;

use crate::driver::EventSink;
use crate::error::EngineResult;
use crate::intern::{Interner, Symbol};
use crate::multi::MultiOutput;
use crate::plan::TriePush;
use crate::result::{Match, NodeId, QueryId};
use crate::telemetry::{Telemetry, TID_PRODUCER_BASE};

use super::admit::Admission;
use super::worker::{EventBatch, Ring, SeqBatch, ShardEvent};
use super::{broadcast, ThreadedSession};

/// What the admission walk decided about one shipped event: its sequence
/// number plus whatever the driver and the trie resolved for it.
enum Verdict {
    Start {
        seq: u64,
        sym: Option<Symbol>,
        node_id: NodeId,
        attr_id_base: NodeId,
        pushes: Arc<[TriePush]>,
    },
    Text {
        seq: u64,
        node_id: NodeId,
    },
    End {
        seq: u64,
        sym: Option<Symbol>,
    },
}

/// The overlapped walk's [`EventSink`]: the driver numbers and resolves,
/// the [`Admission`] sequences and filters; all that is left is to
/// remember the verdict so the walk can pair it with the *owned* parser
/// event (the sink only ever sees a borrow).
struct AdmitSink<'p, 'a> {
    interner: &'a Interner,
    admission: &'p mut Admission<'a>,
    /// Verdict on the event just stepped; `None` when it was filtered (or
    /// is not a sequenced event at all).
    verdict: Option<Verdict>,
}

impl EventSink for AdmitSink<'_, '_> {
    fn resolve(&mut self, name: &str) -> Option<Symbol> {
        self.interner.lookup(name)
    }

    fn start_element(
        &mut self,
        sym: Option<Symbol>,
        event: &StartElementEvent,
        node_id: NodeId,
        attr_id_base: NodeId,
    ) {
        self.verdict = self.admission.start(sym, event.level).map(|(seq, pushes)| Verdict::Start {
            seq,
            sym,
            node_id,
            attr_id_base,
            pushes,
        });
    }

    fn characters(&mut self, _event: &CharactersEvent, node_id: NodeId) {
        self.verdict = self.admission.text().map(|seq| Verdict::Text { seq, node_id });
    }

    fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent) {
        self.verdict = self.admission.end(sym, event.level).map(|seq| Verdict::End { seq, sym });
    }
}

/// Turns one admitted event — the admission verdict plus the owned parser
/// event it was passed on — into its ring form. Runs on the publishers:
/// the string payloads become `Arc`-shared here, so the allocation cost
/// is off the admission thread.
fn shard_event(verdict: Verdict, event: XmlEvent) -> ShardEvent {
    match (verdict, event) {
        (
            Verdict::Start { seq, sym, node_id, attr_id_base, pushes },
            XmlEvent::StartElement(event),
        ) => ShardEvent::Start {
            seq,
            sym,
            name: event.name.as_str().into(),
            level: event.level,
            attrs: event.attributes.as_slice().into(),
            node_id,
            attr_id_base,
            span: event.span,
            pushes,
        },
        (Verdict::Text { seq, node_id }, XmlEvent::Characters(event)) => ShardEvent::Text {
            seq,
            text: event.text.as_str().into(),
            level: event.level,
            node_id,
            span: event.span,
        },
        (Verdict::End { seq, sym }, XmlEvent::EndElement(event)) => ShardEvent::End {
            seq,
            sym,
            name: event.name.as_str().into(),
            level: event.level,
            element_span: event.element_span,
        },
        _ => unreachable!("a verdict is paired with the event that produced it"),
    }
}

/// One admitted sequence window bound for the rings. `items` holds only
/// the shipped events; the window `(after, through]` also covers events
/// the broadcast filter dropped (they consume sequence numbers without
/// payloads, exactly like the pipelined path).
struct PublishJob {
    after: u64,
    through: u64,
    items: Vec<(Verdict, XmlEvent)>,
}

/// A publisher thread: pulls admitted windows off the shared job
/// channel, materializes the shard events, and pushes the batch into
/// every ring. Runs until the job channel is dropped — publishers always
/// drain fully, so no published window can go missing (the workers'
/// reorder stash would wait on it forever). `producer` is this thread's
/// index, used only for its trace lane (`TID_PRODUCER_BASE + producer`,
/// a range disjoint from the parse workers').
fn publish_loop(
    producer: usize,
    jobs: &Mutex<Receiver<PublishJob>>,
    rings: &[Arc<Ring<SeqBatch>>],
    telemetry: &Telemetry,
) {
    loop {
        let t_idle = telemetry.timer();
        let job = jobs.lock().expect("publisher job lock").recv();
        telemetry.add_elapsed(|r| &r.producer_idle_ns, t_idle);
        let Ok(job) = job else { return };
        let t_publish = telemetry.timer();
        telemetry.add(|r| &r.producer_batches, 1);
        telemetry.observe(|r| &r.batch_events, job.items.len() as u64);
        let events: EventBatch =
            job.items.into_iter().map(|(v, e)| shard_event(v, e)).collect::<Vec<_>>().into();
        broadcast(rings, SeqBatch { after: job.after, through: job.through, events });
        telemetry.record_span(
            "publish",
            "producer",
            TID_PRODUCER_BASE + producer as u32,
            t_publish,
        );
    }
}

/// Streams one owned document through the overlapped front-end. See the
/// module docs for the architecture; the output contract is that of
/// [`super::ThreadedSession::run_document`], byte for byte.
pub(super) fn run_document_overlapped<F: FnMut(QueryId, Match)>(
    t: &mut ThreadedSession<'_>,
    bytes: Vec<u8>,
    config: ParallelConfig,
    mut on_match: F,
) -> EngineResult<(MultiOutput, ParStats)> {
    let telemetry = t.driver.telemetry();
    let mut doc = t.begin_document(&telemetry)?;
    let probe = telemetry.is_enabled().then(|| Arc::new(telemetry.clone()) as ProbeHandle);
    let producers = config.threads.max(1);
    let mut reader = ParallelReader::with_config_probe(bytes, config, probe);
    telemetry.gauge_set(|r| &r.producer_threads, producers as u64);

    let rings = t.rings;
    let mut walk = t.driver.begin();
    // Seed DocStart into every ring before any publisher can run: ring
    // FIFO then guarantees each worker resets its document state before
    // it sees any of this document's windows, whatever order the racing
    // publishers deliver them in.
    let doc_start: EventBatch =
        vec![ShardEvent::DocStart { assignment: Arc::clone(&t.assignment) }].into();
    broadcast(rings, SeqBatch { after: 0, through: 0, events: doc_start });

    let (job_tx, job_rx): (SyncSender<PublishJob>, Receiver<PublishJob>) =
        sync_channel(producers * 2);
    let job_rx = Mutex::new(job_rx);
    let parsed: EngineResult<()> = thread::scope(|scope| {
        let job_rx = &job_rx;
        let mut handles = Vec::with_capacity(producers);
        for producer in 0..producers {
            let telemetry = telemetry.clone();
            handles.push(scope.spawn(move || publish_loop(producer, job_rx, rings, &telemetry)));
        }

        let mut sink =
            AdmitSink { interner: t.interner, admission: &mut t.admission, verdict: None };
        let parsed = loop {
            let batch = match reader.next_batch() {
                Ok(Some(events)) => events,
                Ok(None) => {
                    // `next_batch` swallows EndDocument; the driver
                    // counts it like every other event.
                    t.driver.step(&mut walk, &XmlEvent::EndDocument, &mut sink);
                    break Ok(());
                }
                Err(e) => break Err(e.into()),
            };
            let mut items = Vec::with_capacity(batch.len());
            for event in batch {
                t.driver.step(&mut walk, &event, &mut sink);
                if let Some(verdict) = sink.verdict.take() {
                    items.push((verdict, event));
                }
            }
            // Publish the admitted window (blocking on the bounded job
            // channel is the backpressure path), then fold in whatever
            // worker reports have already arrived so merged matches
            // stream to the caller while the document is still parsing.
            if sink.admission.has_open_window() {
                let (after, through) = sink.admission.take_window();
                if job_tx.send(PublishJob { after, through, items }).is_err() {
                    // Every publisher is gone (panicked); the join below
                    // poisons the session.
                    break Ok(());
                }
            }
            doc.ingest_ready(&mut on_match);
            if doc.poisoned.is_some() {
                break Ok(());
            }
        };
        // Publishers drain the job channel fully before exiting, so once
        // they are joined every admitted window is in the rings — only
        // then may DocEnd be pushed (right after this scope). A panicked
        // publisher breaks that guarantee: windows go missing and the
        // workers could never drain, so poison instead.
        drop(job_tx);
        for handle in handles {
            if handle.join().is_err() {
                doc.poison(usize::MAX);
            }
        }
        parsed
    });

    // Close the document on the worker side even after a parse error —
    // the workers quiesce at the last admitted event and the session
    // stays usable (mirrors the pipelined finish-on-error path).
    let (after, through) = t.admission.take_window();
    let doc_end: EventBatch = vec![ShardEvent::DocEnd { seq: through }].into();
    broadcast(rings, SeqBatch { after, through, events: doc_end });
    doc.await_doc_end(&mut on_match);

    let stream = parsed.map(|()| t.driver.finish(walk));
    let out = t.finish_document(doc, stream, &telemetry)?;
    let par_stats = reader.stats();
    telemetry.fold_par(&par_stats);
    Ok((out, par_stats))
}
