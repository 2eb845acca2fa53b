//! The primary's side of replication: the durable log plus the live
//! broadcast fan-out to subscribed followers.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use wdpt_obs::counter;
use wdpt_store::{ReplLog, StoreError};

/// One delta pushed to subscribers. `bytes` is shared: a broadcast to N
/// followers clones the [`Arc`], not the payload.
#[derive(Debug)]
pub struct DeltaBroadcast {
    /// Chain head after applying (content hash of `bytes`).
    pub hash: u64,
    /// Chain position this delta extends.
    pub base_hash: u64,
    /// The delta file bytes.
    pub bytes: Arc<Vec<u8>>,
}

/// What a fresh subscriber must be sent before live frames: either the
/// suffix of deltas past its declared head, or (when its head is unknown
/// to this chain) the base snapshot plus every delta.
pub enum SubscribeStart {
    /// The subscriber's head is on the chain; replay exactly this tail.
    Suffix(Vec<DeltaBroadcast>),
    /// Unknown head: full bootstrap. `snapshot` re-hashes to `head`.
    Bootstrap {
        /// Chain position of the base snapshot.
        head: u64,
        /// The base snapshot bytes.
        snapshot: Arc<Vec<u8>>,
        /// Every delta on the chain, in order.
        replay: Vec<DeltaBroadcast>,
    },
}

/// The primary hub: owns the [`ReplLog`] and the subscriber registry.
///
/// Locking: `log` is the outer lock, `subs` the inner — `publish` holds
/// both briefly, `subscribe` takes both so that no broadcast can fall
/// between "compute the replay suffix" and "register the sender" (a
/// duplicate frame is possible instead, and followers drop duplicates by
/// hash).
pub struct Primary {
    log: Mutex<ReplLog>,
    subs: Mutex<Vec<Sender<Arc<DeltaBroadcast>>>>,
}

impl Primary {
    /// Wraps an opened log.
    pub fn new(log: ReplLog) -> Arc<Primary> {
        Arc::new(Primary {
            log: Mutex::new(log),
            subs: Mutex::new(Vec::new()),
        })
    }

    /// The current chain head.
    pub fn head(&self) -> u64 {
        self.log.lock().expect("repl log lock").head()
    }

    /// Number of currently registered subscribers (senders that have not
    /// yet been observed dead).
    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().expect("repl subs lock").len()
    }

    /// Registers a subscriber whose last known chain position is `base`
    /// (`None` for a fresh follower), returning the replay it must be sent
    /// first and the channel live broadcasts will arrive on.
    pub fn subscribe(
        &self,
        base: Option<u64>,
    ) -> Result<(SubscribeStart, Receiver<Arc<DeltaBroadcast>>), StoreError> {
        let log = self.log.lock().expect("repl log lock");
        let read_all =
            |entries: &[wdpt_store::LogEntry]| -> Result<Vec<DeltaBroadcast>, StoreError> {
                entries
                    .iter()
                    .map(|e| {
                        Ok(DeltaBroadcast {
                            hash: e.hash,
                            base_hash: e.base_hash,
                            bytes: Arc::new(log.read_delta(e)?),
                        })
                    })
                    .collect()
            };
        let start = match base.and_then(|b| log.suffix_from(b)) {
            Some(suffix) => {
                counter!("repl.primary.subscribe_suffix").add(1);
                SubscribeStart::Suffix(read_all(suffix)?)
            }
            None => {
                counter!("repl.primary.subscribe_bootstrap").add(1);
                SubscribeStart::Bootstrap {
                    head: log.base_hash(),
                    snapshot: Arc::new(log.read_base()?),
                    replay: read_all(log.entries())?,
                }
            }
        };
        let (tx, rx) = mpsc::channel();
        self.subs.lock().expect("repl subs lock").push(tx);
        Ok((start, rx))
    }

    /// Accepts one delta: appends it to the durable log (verifying it
    /// chains onto the head) and broadcasts it to every live subscriber.
    /// Returns the new head.
    pub fn publish(&self, delta_bytes: Vec<u8>) -> Result<u64, StoreError> {
        let mut log = self.log.lock().expect("repl log lock");
        let entry = log.append(&delta_bytes)?;
        let broadcast = Arc::new(DeltaBroadcast {
            hash: entry.hash,
            base_hash: entry.base_hash,
            bytes: Arc::new(delta_bytes),
        });
        let head = entry.hash;
        let mut subs = self.subs.lock().expect("repl subs lock");
        subs.retain(|tx| tx.send(Arc::clone(&broadcast)).is_ok());
        counter!("repl.primary.broadcasts").add(1);
        Ok(head)
    }

    /// Whether `hash` is already a position on the chain (used by the
    /// serving layer to skip re-publishing deltas it already accepted).
    pub fn knows(&self, hash: u64) -> bool {
        let log = self.log.lock().expect("repl log lock");
        log.base_hash() == hash || log.entries().iter().any(|e| e.hash == hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use wdpt_store::content_hash;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wdpt-hub-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    // Building real delta bytes needs wdpt-model fixtures, which live in
    // wdpt-store's own tests; here a bootstrap-only log exercises the
    // subscription paths that don't append.
    #[test]
    fn fresh_subscriber_bootstraps_and_current_one_gets_empty_suffix() {
        let dir = temp_dir("sub");
        let base = b"pretend snapshot".to_vec();
        // ReplLog::open_or_init hashes but does not decode the base.
        let log = ReplLog::open_or_init(&dir, &base).unwrap();
        let base_hash = content_hash(&base);
        assert_eq!(log.chain(), vec![base_hash]);
        let primary = Primary::new(log);
        assert_eq!(primary.head(), base_hash);
        assert!(primary.knows(base_hash));
        assert!(!primary.knows(0x1234));

        let (start, _rx) = primary.subscribe(None).unwrap();
        match start {
            SubscribeStart::Bootstrap {
                head,
                snapshot,
                replay,
            } => {
                assert_eq!(head, base_hash);
                assert_eq!(*snapshot, base);
                assert!(replay.is_empty());
            }
            SubscribeStart::Suffix(_) => panic!("fresh follower must bootstrap"),
        }

        let (start, _rx2) = primary.subscribe(Some(base_hash)).unwrap();
        match start {
            SubscribeStart::Suffix(replay) => assert!(replay.is_empty()),
            SubscribeStart::Bootstrap { .. } => panic!("current follower must get a suffix"),
        }
        assert_eq!(primary.subscriber_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
