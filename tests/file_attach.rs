//! Cross-process attach round-trips: every structure is created on a
//! file-backed pool, operated on, dropped (all in-DRAM side tables lost),
//! and re-attached from the path alone — the file's superblock is the only
//! source of truth. Dropping the creator stands in for process death here;
//! the genuine SIGKILL version (no drop glue, no clean handoff) lives in
//! the harness's `--multi-process` crash matrix.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dss::baselines::{DurableQueue, LogQueue, MsQueue};
use dss::core::{
    CombiningQueue, DetectableCas, DetectableMap, DetectableRegister, DssQueue, DssStack,
    ReplicatedQueue, ResolvedOp, Universal,
};
use dss::pmem::{AttachError, PmemPool};
use dss::pmwcas::{CasWithEffectQueue, CweResolvedOp};
use dss::spec::types::{CounterOp, CounterSpec, QueueResp, StackResp};

/// A unique pool-file path, removed again on drop (tests run in parallel
/// within one process, so a counter plus the pid keeps them distinct).
struct TmpPool(PathBuf);

impl TmpPool {
    fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("dss-attach-{}-{name}-{n}.pool", std::process::id()));
        TmpPool(p)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TmpPool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn queue_survives_drop_and_attach() {
    let tmp = TmpPool::new("queue");
    {
        let q = DssQueue::create(tmp.path(), 2, 8).unwrap();
        let h0 = q.register_thread().unwrap();
        for v in [1, 2] {
            q.enqueue(h0, v).unwrap();
        }
        // The last op takes the detectable prep/exec path so the attacher
        // has an announce to resolve (the `enqueue` wrapper omits X).
        q.prep_enqueue(h0, 3).unwrap();
        q.exec_enqueue(h0);
        // Clean handoff: make every pended write-back durable. The crashy
        // variant (no drain) is the harness's multi-process matrix.
        q.pool().drain();
    }
    let q = DssQueue::attach(tmp.path()).unwrap();
    let adopted = q.recover();
    assert_eq!(adopted.len(), 1, "the dead process's slot must be orphaned");
    assert_eq!(q.snapshot_values(), vec![1, 2, 3]);
    let r = q.resolve(adopted[0]);
    assert_eq!(r.op, Some(ResolvedOp::Enqueue(3)));
    assert_eq!(r.resp, Some(QueueResp::Ok));
    // The attached queue is fully operational.
    assert_eq!(q.dequeue(adopted[0]), QueueResp::Value(1));
}

#[test]
fn queue_attach_twice_is_two_crash_boundaries() {
    let tmp = TmpPool::new("queue-twice");
    {
        let q = DssQueue::create(tmp.path(), 1, 8).unwrap();
        let h = q.register_thread().unwrap();
        q.enqueue(h, 42).unwrap();
        q.pool().drain();
    }
    {
        let q = DssQueue::attach(tmp.path()).unwrap();
        let hs = q.recover();
        assert_eq!(q.dequeue(hs[0]), QueueResp::Value(42));
        q.pool().drain();
    }
    // The second attacher sees the first attacher's slot as the orphan.
    let q = DssQueue::attach(tmp.path()).unwrap();
    let hs = q.recover();
    assert_eq!(hs.len(), 1);
    assert_eq!(q.dequeue(hs[0]), QueueResp::Empty);
}

#[test]
fn stack_survives_drop_and_attach() {
    let tmp = TmpPool::new("stack");
    {
        let st = DssStack::create(tmp.path(), 2, 8).unwrap();
        let h = st.register_thread().unwrap();
        st.push(h, 10).unwrap();
        st.push(h, 20).unwrap();
        st.pool().drain();
    }
    let st = DssStack::attach(tmp.path()).unwrap();
    let adopted = st.recover();
    assert_eq!(adopted.len(), 1);
    assert_eq!(st.snapshot_values(), vec![20, 10], "LIFO: top first");
    assert_eq!(st.pop(adopted[0]), StackResp::Value(20));
}

#[test]
fn register_survives_drop_and_attach() {
    let tmp = TmpPool::new("register");
    {
        let r = DetectableRegister::create(tmp.path(), 2, 8).unwrap();
        let h = r.register_thread().unwrap();
        r.prep_write(h, 77, 4);
        r.exec_write(h);
        r.pool().drain();
    }
    let r = DetectableRegister::attach(tmp.path()).unwrap();
    r.begin_recovery();
    let adopted = r.adopt_orphans();
    assert_eq!(adopted.len(), 1);
    assert_eq!(r.read(adopted[0]), 77);
    let res = r.resolve(adopted[0]);
    assert_eq!(res.op.map(|(v, _)| v), Some(77));
    assert!(res.resp.is_some(), "the drained write must have taken effect");
}

#[test]
fn cas_survives_drop_and_attach() {
    let tmp = TmpPool::new("cas");
    {
        let c = DetectableCas::create(tmp.path(), 2, 8).unwrap();
        let h = c.register_thread().unwrap();
        c.prep_cas(h, 0, 9, 4);
        assert!(c.exec_cas(h));
        c.pool().drain();
    }
    let c = DetectableCas::attach(tmp.path()).unwrap();
    c.begin_recovery();
    let adopted = c.adopt_orphans();
    assert_eq!(adopted.len(), 1);
    assert_eq!(c.read(adopted[0]), 9);
    let res = c.resolve(adopted[0]);
    assert_eq!(res.op.map(|(e, n, _)| (e, n)), Some((0, 9)));
    assert_eq!(res.resp, Some(true));
}

#[test]
fn universal_survives_drop_and_attach() {
    let tmp = TmpPool::new("universal");
    {
        let u = Universal::create(CounterSpec, tmp.path(), 2, 64).unwrap();
        let h = u.register_thread().unwrap();
        u.prep(h, CounterOp::FetchAdd(5), 0);
        u.exec(h);
        u.prep(h, CounterOp::FetchAdd(3), 1);
        u.exec(h);
        u.pool().drain();
    }
    // The spec is code, not data: the attacher supplies it again.
    let u = Universal::attach(CounterSpec, tmp.path()).unwrap();
    u.begin_recovery();
    let adopted = u.adopt_orphans();
    assert_eq!(adopted.len(), 1);
    assert_eq!(u.state(), 8, "both fetch-adds are in the persisted history");
    let (op, resp) = u.resolve(adopted[0]);
    assert_eq!(op, Some((CounterOp::FetchAdd(3), 1)));
    assert!(resp.is_some());
}

#[test]
fn durable_queue_survives_drop_and_attach() {
    let tmp = TmpPool::new("durable");
    {
        let q = DurableQueue::create(tmp.path(), 2, 8).unwrap();
        let h = q.register_thread().unwrap();
        q.enqueue(h, 5).unwrap();
        q.enqueue(h, 6).unwrap();
        q.pool().drain();
    }
    let q = DurableQueue::attach(tmp.path()).unwrap();
    q.recover();
    q.begin_recovery();
    let adopted = q.adopt_orphans();
    assert_eq!(adopted.len(), 1);
    assert_eq!(q.snapshot_values(), vec![5, 6]);
    assert_eq!(q.dequeue(adopted[0]), QueueResp::Value(5));
}

#[test]
fn log_queue_survives_drop_and_attach() {
    let tmp = TmpPool::new("log");
    {
        let q = LogQueue::create(tmp.path(), 2, 8).unwrap();
        let h = q.register_thread().unwrap();
        q.enqueue(h, 11).unwrap();
        q.pool().drain();
    }
    let q = LogQueue::attach(tmp.path()).unwrap();
    q.recover();
    q.begin_recovery();
    let adopted = q.adopt_orphans();
    assert_eq!(adopted.len(), 1);
    assert_eq!(q.snapshot_values(), vec![11]);
    let res = q.resolve(adopted[0]);
    assert_eq!(res.op, Some(Some(11)), "last announced op was enqueue(11)");
    assert_eq!(res.resp, Some(QueueResp::Ok));
}

#[test]
fn ms_queue_attach_loses_contents_but_keeps_registry() {
    let tmp = TmpPool::new("ms");
    {
        let q = MsQueue::create(tmp.path(), 2, 8).unwrap();
        let h = q.register_thread().unwrap();
        q.enqueue(h, 1).unwrap();
        q.enqueue(h, 2).unwrap();
        q.pool().drain();
    }
    // The volatile baseline by design: no operation ever flushed, so the
    // contents do not survive the process — only the registry does.
    let q = MsQueue::attach(tmp.path()).unwrap();
    assert_eq!(q.snapshot_values(), Vec::<u64>::new());
    let h = q.register_thread().unwrap();
    q.enqueue(h, 3).unwrap();
    assert_eq!(q.dequeue(h), QueueResp::Value(3));
}

#[test]
fn cwe_queue_both_variants_survive_drop_and_attach() {
    for fast in [false, true] {
        let tmp = TmpPool::new(if fast { "cwe-fast" } else { "cwe-general" });
        {
            let q = if fast {
                CasWithEffectQueue::create_fast(tmp.path(), 2, 8).unwrap()
            } else {
                CasWithEffectQueue::create_general(tmp.path(), 2, 8).unwrap()
            };
            let h = q.register_thread().unwrap();
            q.prep_enqueue(h, 31).unwrap();
            q.exec_enqueue(h);
            q.pool().drain();
        }
        // attach reconstructs the variant from the superblock's flag word.
        let q = CasWithEffectQueue::attach(tmp.path()).unwrap();
        assert_eq!(q.is_fast(), fast);
        q.recover();
        q.begin_recovery();
        let adopted = q.adopt_orphans();
        assert_eq!(adopted.len(), 1);
        assert_eq!(q.snapshot_values(), vec![31]);
        let res = q.resolve(adopted[0]);
        assert_eq!(res.op, Some(CweResolvedOp::Enqueue(31)));
        assert_eq!(res.resp, Some(QueueResp::Ok));
        assert_eq!(
            q.exec_dequeue({
                q.prep_dequeue(adopted[0]);
                adopted[0]
            }),
            QueueResp::Value(31)
        );
    }
}

#[test]
fn combining_queue_survives_drop_and_attach() {
    let tmp = TmpPool::new("combining");
    {
        let q = CombiningQueue::create(tmp.path(), 2, 8).unwrap();
        let h = q.register_thread().unwrap();
        q.enqueue(h, 1).unwrap();
        q.enqueue(h, 2).unwrap();
        q.prep_enqueue(h, 3).unwrap();
        q.exec_enqueue(h);
        q.pool().drain();
    }
    // Attach clears the dead process's lease; recovery adopts its slot and
    // the batch-applied contents are all there.
    let q = CombiningQueue::attach(tmp.path()).unwrap();
    let adopted = q.recover();
    assert_eq!(adopted.len(), 1, "the dead process's slot must be orphaned");
    assert_eq!(q.snapshot_values(), vec![1, 2, 3]);
    let r = q.resolve(adopted[0]);
    assert_eq!(r.op, Some(ResolvedOp::Enqueue(3)));
    assert_eq!(r.resp, Some(QueueResp::Ok));
    // The attached queue combines again: this dequeue goes through a
    // fresh combiner batch in the new process.
    assert_eq!(q.dequeue(adopted[0]), QueueResp::Value(1));
}

#[test]
fn combining_and_cas_pools_reject_each_other() {
    // The two execution layers share the node layout but not the lease
    // line (and a CAS attacher would race a combiner's plain-store
    // discipline), so neither may silently adopt the other's file.
    let cas = TmpPool::new("cas-pool");
    {
        let q = DssQueue::create(cas.path(), 1, 4).unwrap();
        q.pool().drain();
    }
    match CombiningQueue::attach(cas.path()) {
        Err(AttachError::AppMismatch { expected, found }) => {
            assert_eq!(expected, dss::core::KIND_DSS_QUEUE_COMBINING);
            assert_eq!(found, dss::core::KIND_DSS_QUEUE);
        }
        other => panic!("expected AppMismatch, got {other:?}"),
    }
    let comb = TmpPool::new("combining-pool");
    {
        let q = CombiningQueue::create(comb.path(), 1, 4).unwrap();
        q.pool().drain();
    }
    match DssQueue::attach(comb.path()) {
        Err(AttachError::AppMismatch { expected, found }) => {
            assert_eq!(expected, dss::core::KIND_DSS_QUEUE);
            assert_eq!(found, dss::core::KIND_DSS_QUEUE_COMBINING);
        }
        other => panic!("expected AppMismatch, got {other:?}"),
    }
}

#[test]
fn attach_rejects_wrong_structure_kind() {
    let tmp = TmpPool::new("mismatch");
    {
        let q = DssQueue::create(tmp.path(), 1, 4).unwrap();
        q.pool().drain();
    }
    match DssStack::attach(tmp.path()) {
        Err(AttachError::AppMismatch { expected, found }) => {
            assert_eq!(expected, dss::core::KIND_DSS_STACK);
            assert_eq!(found, dss::core::KIND_DSS_QUEUE);
        }
        other => panic!("expected AppMismatch, got {other:?}"),
    }
    // Same check across crates: a baseline refuses a core structure's file.
    assert!(matches!(
        DurableQueue::attach(tmp.path()),
        Err(AttachError::AppMismatch { found, .. }) if found == dss::core::KIND_DSS_QUEUE
    ));
}

#[test]
fn attach_missing_file_is_io_error() {
    let tmp = TmpPool::new("missing");
    assert!(matches!(DssQueue::attach(tmp.path()), Err(AttachError::Io(_))));
}

#[test]
fn file_backed_and_anonymous_runs_agree() {
    // Byte-parity satellite: the same op sequence on an anonymous pool and
    // a file-backed pool leaves identical persisted queue state.
    let tmp = TmpPool::new("parity");
    let anon = DssQueue::new(1, 8);
    let file = DssQueue::create(tmp.path(), 1, 8).unwrap();
    let ha = anon.register_thread().unwrap();
    let hf = file.register_thread().unwrap();
    for v in [4, 5, 6] {
        anon.enqueue(ha, v).unwrap();
        file.enqueue(hf, v).unwrap();
    }
    assert_eq!(anon.dequeue(ha), QueueResp::Value(4));
    assert_eq!(file.dequeue(hf), QueueResp::Value(4));
    assert_eq!(anon.snapshot_values(), file.snapshot_values());
    assert_eq!(anon.resolve(ha), file.resolve(hf));
}

/// One structure kind of the parameter-corruption table: how to create a
/// small pool file of it, how to attach one, and which of its parameter
/// words the corruptions target.
struct AttachCase {
    name: &'static str,
    create: fn(&Path),
    attach: fn(&Path) -> Result<(), AttachError>,
    /// Leading parameter words that must be nonzero (thread count first).
    sizes: usize,
    /// A flag word whose only valid values are 0 and 1, if the kind has one.
    flag: Option<usize>,
}

/// Every kind that can own a pool file.
fn attach_cases() -> [AttachCase; 12] {
    [
        AttachCase {
            name: "queue",
            create: |p| drop(DssQueue::create(p, 2, 8).unwrap()),
            attach: |p| DssQueue::attach(p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "stack",
            create: |p| drop(DssStack::create(p, 2, 8).unwrap()),
            attach: |p| DssStack::attach(p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "register",
            create: |p| drop(DetectableRegister::create(p, 2, 8).unwrap()),
            attach: |p| DetectableRegister::attach(p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "cas",
            create: |p| drop(DetectableCas::create(p, 2, 8).unwrap()),
            attach: |p| DetectableCas::attach(p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "universal",
            create: |p| drop(Universal::create(CounterSpec, p, 2, 8).unwrap()),
            attach: |p| Universal::attach(CounterSpec, p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "durable",
            create: |p| drop(DurableQueue::create(p, 2, 8).unwrap()),
            attach: |p| DurableQueue::attach(p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "log",
            create: |p| drop(LogQueue::create(p, 2, 8).unwrap()),
            attach: |p| LogQueue::attach(p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "ms",
            create: |p| drop(MsQueue::create(p, 2, 8).unwrap()),
            attach: |p| MsQueue::attach(p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "cwe",
            create: |p| drop(CasWithEffectQueue::create_fast(p, 2, 8).unwrap()),
            attach: |p| CasWithEffectQueue::attach(p).map(drop),
            sizes: 2,
            flag: Some(2),
        },
        AttachCase {
            name: "combining",
            create: |p| drop(CombiningQueue::create(p, 2, 8).unwrap()),
            attach: |p| CombiningQueue::attach(p).map(drop),
            sizes: 2,
            flag: None,
        },
        AttachCase {
            name: "replicated",
            create: |p| drop(ReplicatedQueue::create(p, 2, 8).unwrap()),
            attach: |p| ReplicatedQueue::attach(p).map(drop),
            sizes: 3,
            flag: Some(3),
        },
        AttachCase {
            name: "map",
            create: |p| drop(DetectableMap::create(p, 2, 8, 8).unwrap()),
            attach: |p| DetectableMap::attach(p).map(drop),
            sizes: 3,
            flag: None,
        },
    ]
}

/// Rewrites a pool file's parameter words through the pool's own
/// superblock API, keeping its structure-kind word.
fn rewrite_params(path: &Path, edit: impl FnOnce(&mut [u64; PmemPool::APP_CONFIG_WORDS])) {
    let pool = PmemPool::attach(path).unwrap();
    let mut params = pool.app_config();
    edit(&mut params);
    pool.set_app_config(pool.app_kind(), &params);
}

#[test]
fn attach_rejects_corrupt_parameter_words_for_every_kind() {
    for case in attach_cases() {
        // Each size word zeroed, an absurd thread count (its layout
        // arithmetic would overflow), and an out-of-range flag.
        let mut edits: Vec<(usize, u64)> = (0..case.sizes).map(|w| (w, 0)).collect();
        edits.push((0, 1 << 61));
        edits.extend(case.flag.map(|w| (w, 2)));
        for (word, value) in edits {
            let tmp = TmpPool::new(case.name);
            (case.create)(tmp.path());
            rewrite_params(tmp.path(), |p| p[word] = value);
            let got = (case.attach)(tmp.path());
            assert!(
                matches!(got, Err(AttachError::Corrupt(_))),
                "{}: parameter word {word} = {value} gave {got:?}",
                case.name
            );
        }
    }
    // A 4-thread x 16-node queue claiming 2 threads x 34 nodes derives the
    // same registry base, so only the slot-count check can catch it (the
    // registry still has 4 slots; slot 2 would index past the 2-slot EBR
    // domain).
    let tmp = TmpPool::new("queue-slot-lie");
    drop(DssQueue::create(tmp.path(), 4, 16).unwrap());
    rewrite_params(tmp.path(), |p| p[..2].copy_from_slice(&[2, 34]));
    let got = DssQueue::attach(tmp.path());
    assert!(matches!(got, Err(AttachError::Corrupt(_))), "slot-count lie gave {got:?}");
}
