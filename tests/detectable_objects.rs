//! Integration tests for the non-queue detectable objects — register,
//! CAS, and the universal construction — including the §2.2 nesting
//! story, through the `dss` facade.

use dss::core::{DetectableCas, DetectableRegister, Universal};
use dss::pmem::WritebackAdversary;
use dss::spec::types::{
    CounterOp, CounterResp, CounterSpec, QueueOp, QueueResp, QueueSpec, RegisterResp, StackOp,
    StackResp, StackSpec,
};

#[test]
fn register_figure2_all_four_cases_are_reachable() {
    // Sweep crash points and bucket the outcomes; all three legal
    // response classes must occur, and nothing else.
    let mut saw = [false; 3]; // (⊥,⊥), (op,⊥), (op,OK)
    for k in 1.. {
        let r = DetectableRegister::new(1, 8);
        let h0 = r.register_thread().unwrap();
        let crashed = r.pool().crashes_within(k, || {
            r.prep_write(h0, 1, 0);
            r.exec_write(h0);
        });
        if !crashed {
            break;
        }
        r.pool().crash(&WritebackAdversary::All);
        r.rebuild_allocator();
        let res = r.resolve(h0);
        match (res.op, res.resp) {
            (None, None) => saw[0] = true,
            (Some((1, 0)), None) => saw[1] = true,
            (Some((1, 0)), Some(RegisterResp::Ok)) => saw[2] = true,
            other => panic!("k={k}: impossible resolution {other:?}"),
        }
    }
    assert_eq!(saw, [true, true, true], "all Figure 2 outcome classes observed");
}

#[test]
fn cas_contention_only_one_winner_per_generation() {
    // Two threads race identical CAS(0 -> v); exactly one must win.
    let c = DetectableCas::new(2, 16);
    let hs: Vec<_> = (0..2).map(|_| c.register_thread().unwrap()).collect();
    let winners: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|tid| {
                let c = &c;
                let h = hs[tid];
                s.spawn(move || {
                    c.prep_cas(h, 0, 10 + tid as u64, 0);
                    c.exec_cas(h)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(winners.iter().filter(|w| **w).count(), 1, "exactly one CAS succeeds");
    let v = c.read(hs[0]);
    assert!(v == 10 || v == 11);
    // Both threads can resolve their outcome after the fact.
    for (tid, won) in winners.iter().enumerate() {
        assert_eq!(c.resolve(hs[tid]).resp, Some(*won));
    }
}

#[test]
fn universal_queue_agrees_with_bespoke_semantics() {
    // The universal construction of D<queue> and the hand-built DSS queue
    // implement the same type: run the same script through both.
    let uni = Universal::new(QueueSpec, 1, 64);
    let dss = dss::core::DssQueue::new(1, 64);
    let uh = uni.register_thread().unwrap();
    let dh = dss.register_thread().unwrap();
    let script = [5u64, 9, 1, 7];
    for v in script {
        assert_eq!(uni.plain(uh, QueueOp::Enqueue(v)), QueueResp::Ok);
        dss.enqueue(dh, v).unwrap();
    }
    loop {
        let a = uni.plain(uh, QueueOp::Dequeue);
        let b = dss.dequeue(dh);
        assert_eq!(a, b);
        if a == QueueResp::Empty {
            break;
        }
    }
}

#[test]
fn universal_stack_crash_sweep_is_exactly_once() {
    for k in 1..80 {
        let st = Universal::new(StackSpec, 1, 32);
        let h0 = st.register_thread().unwrap();
        st.plain(h0, StackOp::Push(1));
        let crashed = st.pool().crashes_within(k, || {
            st.prep(h0, StackOp::Push(2), 77);
            st.exec(h0);
        });
        if !crashed {
            break;
        }
        st.pool().crash(&WritebackAdversary::None);
        st.rebuild_allocator();
        // Exactly-once retry discipline driven by resolve:
        let (op, resp) = st.resolve(h0);
        if op == Some((StackOp::Push(2), 77)) && resp.is_none() {
            st.prep(h0, StackOp::Push(2), 78);
            st.exec(h0);
        } else if op != Some((StackOp::Push(2), 77)) {
            // prep itself never persisted
            st.prep(h0, StackOp::Push(2), 78);
            st.exec(h0);
        }
        assert_eq!(st.state(), vec![1, 2], "k={k}");
    }
}

#[test]
fn universal_counter_under_concurrency_and_crash() {
    let c = Universal::new(CounterSpec, 3, 512);
    let hs: Vec<_> = (0..3).map(|_| c.register_thread().unwrap()).collect();
    let per_thread = 30u64;
    std::thread::scope(|s| {
        for &h in &hs {
            let c = &c;
            s.spawn(move || {
                for i in 0..per_thread {
                    c.prep(h, CounterOp::FetchAdd(1), i);
                    c.exec(h);
                }
            });
        }
    });
    assert_eq!(c.state(), 90);
    // Crash erases nothing that was executed (links are flushed), and the
    // counter replays identically.
    c.pool().crash(&WritebackAdversary::None);
    c.rebuild_allocator();
    assert_eq!(c.state(), 90);
    let (_, resp) = c.resolve(hs[1]);
    assert!(matches!(resp, Some(CounterResp::Value(_))));
}

#[test]
fn register_and_cas_pools_are_independent() {
    // Crashing one object leaves the other untouched (per-object pools).
    let r = DetectableRegister::new(1, 8);
    let c = DetectableCas::new(1, 8);
    let rh = r.register_thread().unwrap();
    let ch = c.register_thread().unwrap();
    r.prep_write(rh, 5, 0);
    r.exec_write(rh);
    c.prep_cas(ch, 0, 9, 0);
    assert!(c.exec_cas(ch));
    r.pool().crash(&WritebackAdversary::None);
    r.rebuild_allocator();
    assert_eq!(c.read(ch), 9, "the CAS object never crashed");
    assert_eq!(r.read(rh), 5, "the write was persisted before the crash");
}

#[test]
fn stack_resolve_distinguishes_repeated_identical_ops_by_seq() {
    // The §2.1 ambiguity remedy: same op twice, different seq tags.
    let st = Universal::new(StackSpec, 1, 16);
    let h0 = st.register_thread().unwrap();
    st.prep(h0, StackOp::Push(4), 0);
    assert_eq!(st.exec(h0), StackResp::Ok);
    st.prep(h0, StackOp::Push(4), 1);
    let (op, resp) = st.resolve(h0);
    assert_eq!(op, Some((StackOp::Push(4), 1)), "resolve names the *second* push");
    assert!(resp.is_none(), "which has not executed yet");
}
