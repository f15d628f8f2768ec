//! The concrete interpreter: runs IR programs with cooperative threads,
//! reporting control-flow and data events to a [`TraceSink`].
//!
//! Scheduling is deterministic given a [`SchedConfig`]: threads run
//! round-robin in quanta whose lengths are derived from a seeded xorshift,
//! so concurrency bugs manifest (or not) reproducibly per seed — the
//! substrate for the paper's coarse-interleaving discussion (§3.4).

use crate::env::Env;
use crate::error::{Failure, RuntimeFault};
use crate::ir::*;
use crate::mem::Memory;
use crate::trace::{NullSink, TraceSink};
use std::collections::{HashMap, VecDeque};

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Nominal instructions per scheduling quantum.
    pub quantum: u64,
    /// Seed for per-quantum jitter; different seeds explore different
    /// coarse interleavings.
    pub seed: u64,
    /// Total instruction budget before the run is declared a hang.
    pub max_instrs: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            quantum: 1_000,
            seed: 1,
            max_instrs: 200_000_000,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// `main` returned (and all spawned threads were joined or finished).
    Completed,
    /// The program faulted.
    Failure(Failure),
}

/// Everything observable about one finished run.
#[derive(Debug)]
pub struct RunReport<S> {
    /// Completion or failure.
    pub outcome: RunOutcome,
    /// Values printed via `print`.
    pub output: Vec<u64>,
    /// Dynamic instructions executed (terminators included).
    pub instr_count: u64,
    /// Final memory image (for core-dump-style analyses).
    pub mem: Memory,
    /// The trace sink, with whatever it captured.
    pub sink: S,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedLock(u64),
    BlockedJoin(u64),
    Done,
}

#[derive(Debug)]
struct Frame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<u64>,
    ret_dst: Option<Reg>,
    stack_mark: u64,
}

#[derive(Debug)]
struct Thread {
    tid: u64,
    frames: Vec<Frame>,
    state: ThreadState,
}

/// An IR interpreter with a pluggable trace sink.
#[derive(Debug)]
pub struct Machine<'p, S = NullSink> {
    program: &'p Program,
    env: Env,
    mem: Memory,
    threads: Vec<Thread>,
    run_queue: VecDeque<usize>,
    lock_owner: HashMap<u64, u64>,
    icount: u64,
    output: Vec<u64>,
    next_tid: u64,
    sched: SchedConfig,
    rng: u64,
    sink: S,
}

impl<'p> Machine<'p, NullSink> {
    /// A machine running `program` against `env` with no monitoring.
    pub fn new(program: &'p Program, env: Env) -> Self {
        Machine::with_sink(program, env, NullSink)
    }
}

impl<'p, S: TraceSink> Machine<'p, S> {
    /// A machine that reports events to `sink`.
    pub fn with_sink(program: &'p Program, env: Env, sink: S) -> Self {
        let mem = Memory::new(program);
        let main = Thread {
            tid: 0,
            frames: vec![Frame {
                func: program.entry,
                block: BlockId(0),
                ip: 0,
                regs: vec![0; program.func(program.entry).n_regs],
                ret_dst: None,
                stack_mark: mem.stack_watermark(0),
            }],
            state: ThreadState::Runnable,
        };
        Machine {
            program,
            env,
            mem,
            threads: vec![main],
            run_queue: VecDeque::from([0]),
            lock_owner: HashMap::new(),
            icount: 0,
            output: Vec::new(),
            next_tid: 1,
            sched: SchedConfig::default(),
            rng: SchedConfig::default().seed | 1,
            sink,
        }
    }

    /// Overrides the scheduler configuration.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self.rng = sched.seed | 1;
        self
    }

    fn next_quantum(&mut self) -> u64 {
        // xorshift64* jitter in [quantum/2, 3*quantum/2).
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let q = self.sched.quantum.max(2);
        q / 2 + (self.rng % q)
    }

    /// Runs to completion or failure, consuming the machine.
    pub fn run(mut self) -> RunReport<S> {
        let outcome = self.run_loop();
        RunReport {
            outcome,
            output: self.output,
            instr_count: self.icount,
            mem: self.mem,
            sink: self.sink,
        }
    }

    fn run_loop(&mut self) -> RunOutcome {
        loop {
            let Some(t) = self.run_queue.pop_front() else {
                // Nothing runnable. Either everything finished or we have a
                // deadlock among blocked threads.
                if let Some(blocked) = self.threads.iter().position(|t| {
                    matches!(
                        t.state,
                        ThreadState::BlockedLock(_) | ThreadState::BlockedJoin(_)
                    )
                }) {
                    return RunOutcome::Failure(self.failure_at(blocked, RuntimeFault::Deadlock));
                }
                return RunOutcome::Completed;
            };
            if self.threads[t].state != ThreadState::Runnable {
                continue;
            }
            let tid = self.threads[t].tid;
            self.sink.thread_resume(tid, self.icount);
            let quantum = self.next_quantum();
            let deadline = self.icount + quantum;
            match self.run_slice(t, deadline.min(self.sched.max_instrs)) {
                // A slice that ends short of the deadline ran into `max_instrs`.
                StepResult::Continue if self.icount < deadline => {
                    return RunOutcome::Failure(self.failure_at(t, RuntimeFault::Hang));
                }
                StepResult::Continue | StepResult::Blocked | StepResult::ThreadDone => {}
                StepResult::Fault(f) => {
                    return RunOutcome::Failure(self.failure_at(t, f));
                }
            }
            if self.threads[t].state == ThreadState::Runnable {
                self.run_queue.push_back(t);
            }
        }
    }

    fn failure_at(&self, thread_index: usize, fault: RuntimeFault) -> Failure {
        let th = &self.threads[thread_index];
        let at = th
            .frames
            .last()
            .map(|f| {
                let blk = self.program.func(f.func).block(f.block);
                let index = if f.ip < blk.instrs.len() {
                    f.ip
                } else {
                    InstrId::TERMINATOR
                };
                InstrId {
                    func: f.func,
                    block: f.block,
                    index,
                }
            })
            .unwrap_or(InstrId {
                func: self.program.entry,
                block: BlockId(0),
                index: 0,
            });
        Failure {
            fault,
            at,
            call_stack: th.frames.iter().map(|f| f.func).collect(),
            tid: th.tid,
        }
    }

    fn set_reg(&mut self, t: usize, r: Reg, v: u64) {
        self.threads[t].frames.last_mut().expect("live frame").regs[r.0 as usize] = v;
    }

    fn operand(&self, t: usize, op: Operand) -> u64 {
        operand(&self.threads[t].frames.last().expect("live frame").regs, op)
    }

    /// Runs thread `t` until the instruction count reaches `limit`
    /// (returning [`StepResult::Continue`]) or the thread blocks, finishes
    /// or faults. Every instruction, terminators included, counts one and
    /// starts only while the count is below `limit`, so a slice stops at
    /// exactly the instruction where stepping one at a time would.
    fn run_slice(&mut self, t: usize, limit: u64) -> StepResult {
        let program = self.program;
        let globals = program.globals.as_slice();
        while self.icount < limit {
            let frame = self.threads[t].frames.last_mut().expect("live frame");
            let func = program.func(frame.func);
            // Register instructions, jumps and branches touch nothing but
            // the frame and the sink: they run with the frame borrowed once,
            // block after block, until another instruction or a return.
            let blk = loop {
                let blk = func.block(frame.block);
                let start = frame.ip;
                let left = usize::try_from(limit - self.icount).unwrap_or(usize::MAX);
                let end = blk.instrs.len().min(start.saturating_add(left));
                let mut ip = start;
                let mut fault = None;
                let regs = frame.regs.as_mut_slice();
                for instr in &blk.instrs[start..end] {
                    match exec_register(instr, regs, globals) {
                        Some(Ok(())) => ip += 1,
                        Some(Err(f)) => {
                            fault = Some(f);
                            break;
                        }
                        None => break,
                    }
                }
                self.icount += (ip - start) as u64;
                frame.ip = ip;
                if let Some(f) = fault {
                    self.icount += 1;
                    return StepResult::Fault(f);
                }
                if self.icount == limit || ip < blk.instrs.len() {
                    break blk;
                }
                let next = match *blk.term.as_ref().expect("lowering terminates every block") {
                    Terminator::Jump(b) => b,
                    Terminator::Branch {
                        cond,
                        then_blk,
                        else_blk,
                    } => {
                        let taken = operand(&frame.regs, cond) != 0;
                        self.sink.cond_branch(taken);
                        if taken {
                            then_blk
                        } else {
                            else_blk
                        }
                    }
                    Terminator::Return(_) => break blk,
                };
                self.icount += 1;
                frame.block = next;
                frame.ip = 0;
            };
            let ip = frame.ip;
            if self.icount >= limit {
                break;
            }
            self.icount += 1;
            let step = match blk.instrs.get(ip) {
                Some(instr) => match self.exec_instr(t, instr) {
                    Ok(InstrFlow::Advance) => {
                        self.threads[t].frames.last_mut().expect("live frame").ip += 1;
                        StepResult::Continue
                    }
                    Ok(InstrFlow::Redirected) => StepResult::Continue,
                    Ok(InstrFlow::Blocked) => StepResult::Blocked,
                    Err(f) => StepResult::Fault(f),
                },
                None => match blk.term {
                    Some(Terminator::Return(v)) => self.ret(t, v),
                    _ => unreachable!("the block loop takes jumps and branches"),
                },
            };
            if !matches!(step, StepResult::Continue) {
                return step;
            }
        }
        StepResult::Continue
    }

    fn ret(&mut self, t: usize, v: Option<Operand>) -> StepResult {
        let value = v.map(|op| self.operand(t, op)).unwrap_or(0);
        let frame = self.threads[t].frames.pop().expect("live frame");
        self.sink.ret();
        self.sink.ret_value(frame.func, value);
        let tid = self.threads[t].tid;
        self.mem.stack_restore(tid, frame.stack_mark);
        if let Some(caller) = self.threads[t].frames.last_mut() {
            if let Some(dst) = frame.ret_dst {
                caller.regs[dst.0 as usize] = value;
            }
            caller.ip += 1; // move past the Call instruction
            StepResult::Continue
        } else {
            self.thread_done(t);
            StepResult::ThreadDone
        }
    }

    fn thread_done(&mut self, t: usize) {
        self.threads[t].state = ThreadState::Done;
        let tid = self.threads[t].tid;
        // Wake joiners.
        for (i, th) in self.threads.iter_mut().enumerate() {
            if th.state == ThreadState::BlockedJoin(tid) {
                th.state = ThreadState::Runnable;
                self.run_queue.push_back(i);
            }
        }
    }

    fn exec_instr(&mut self, t: usize, instr: &Instr) -> Result<InstrFlow, RuntimeFault> {
        match instr {
            Instr::Const { .. }
            | Instr::Bin { .. }
            | Instr::Un { .. }
            | Instr::Cmp { .. }
            | Instr::Cast { .. }
            | Instr::GlobalAddr { .. } => {
                unreachable!("register instructions run in the block loop")
            }
            Instr::Load { dst, addr, width } => {
                let a = self.operand(t, *addr);
                let v = self.mem.load(a, *width)?;
                self.set_reg(t, *dst, v);
            }
            Instr::Store { addr, value, width } => {
                let a = self.operand(t, *addr);
                let v = self.operand(t, *value);
                self.mem.store(a, *width, v)?;
            }
            Instr::StackAlloc { dst, size } => {
                let tid = self.threads[t].tid;
                let a = self.mem.stack_alloc(tid, *size);
                self.set_reg(t, *dst, a);
            }
            Instr::Alloc { dst, size } => {
                let n = self.operand(t, *size);
                let a = self.mem.heap_alloc(n);
                self.set_reg(t, *dst, a);
            }
            Instr::Free { addr } => {
                let a = self.operand(t, *addr);
                self.mem.heap_free(a)?;
            }
            Instr::Call { dst, func, args } => {
                let callee = self.program.func(*func);
                let mut regs = vec![0u64; callee.n_regs];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = self.operand(t, *a);
                }
                self.sink.call(*func);
                self.sink.call_args(*func, &regs[..callee.n_params]);
                let tid = self.threads[t].tid;
                let mark = self.mem.stack_watermark(tid);
                self.threads[t].frames.push(Frame {
                    func: *func,
                    block: BlockId(0),
                    ip: 0,
                    regs,
                    ret_dst: *dst,
                    stack_mark: mark,
                });
                return Ok(InstrFlow::Redirected);
            }
            Instr::Input { dst, source, width } => {
                let (v, event) = self.env.read_input(*source, *width)?;
                self.sink.input(&event);
                self.set_reg(t, *dst, v);
            }
            Instr::Clock { dst } => {
                let v = self.env.read_clock();
                self.sink.clock_read(v);
                self.set_reg(t, *dst, v);
            }
            Instr::PtWrite { value } => {
                let v = self.operand(t, *value);
                self.sink.ptwrite(v);
            }
            Instr::Print { value } => {
                let v = self.operand(t, *value);
                self.output.push(v);
            }
            Instr::Spawn { dst, func, args } => {
                let callee = self.program.func(*func);
                let mut regs = vec![0u64; callee.n_regs];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = self.operand(t, *a);
                }
                let tid = self.next_tid;
                self.next_tid += 1;
                let mark = self.mem.stack_watermark(tid);
                self.threads.push(Thread {
                    tid,
                    frames: vec![Frame {
                        func: *func,
                        block: BlockId(0),
                        ip: 0,
                        regs,
                        ret_dst: None,
                        stack_mark: mark,
                    }],
                    state: ThreadState::Runnable,
                });
                let idx = self.threads.len() - 1;
                self.run_queue.push_back(idx);
                self.set_reg(t, *dst, tid);
            }
            Instr::Join { tid } => {
                let target = self.operand(t, *tid);
                if target >= self.next_tid {
                    return Err(RuntimeFault::BadJoin { tid: target });
                }
                let done = self
                    .threads
                    .iter()
                    .any(|th| th.tid == target && th.state == ThreadState::Done);
                if !done {
                    self.threads[t].state = ThreadState::BlockedJoin(target);
                    // Re-execute Join when woken: do not advance ip; the wake
                    // path marks the thread runnable and the join re-checks.
                    self.threads[t].frames.last_mut().expect("live frame").ip += 1;
                    return Ok(InstrFlow::Blocked);
                }
            }
            Instr::Lock { lock } => {
                let id = self.operand(t, *lock);
                let tid = self.threads[t].tid;
                match self.lock_owner.get(&id) {
                    None => {
                        self.lock_owner.insert(id, tid);
                    }
                    Some(_) => {
                        self.threads[t].state = ThreadState::BlockedLock(id);
                        // ip is *not* advanced: the lock is re-attempted when
                        // the thread is woken by an unlock.
                        return Ok(InstrFlow::Blocked);
                    }
                }
            }
            Instr::Unlock { lock } => {
                let id = self.operand(t, *lock);
                self.lock_owner.remove(&id);
                // Wake all waiters; they re-contend for the lock.
                for (i, th) in self.threads.iter_mut().enumerate() {
                    if th.state == ThreadState::BlockedLock(id) {
                        th.state = ThreadState::Runnable;
                        self.run_queue.push_back(i);
                    }
                }
            }
            Instr::Assert { cond, message } => {
                if self.operand(t, *cond) == 0 {
                    return Err(RuntimeFault::AssertFailed {
                        message: message.clone(),
                    });
                }
            }
            Instr::Abort { message } => {
                return Err(RuntimeFault::Abort {
                    message: message.clone(),
                });
            }
        }
        Ok(InstrFlow::Advance)
    }
}

#[inline]
fn operand(regs: &[u64], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
    }
}

/// Executes `instr` if it reads and writes nothing but the frame's
/// registers (`Const`, `Bin`, `Un`, `Cmp`, `Cast`, `GlobalAddr`); `None`
/// for every other instruction.
#[inline]
fn exec_register(
    instr: &Instr,
    regs: &mut [u64],
    globals: &[Global],
) -> Option<Result<(), RuntimeFault>> {
    let val = |op| operand(regs, op);
    let (dst, v) = match *instr {
        Instr::Const { dst, value } => (dst, value),
        Instr::Bin {
            dst,
            op,
            a,
            b,
            width,
        } => match op.eval(width, val(a), val(b)) {
            Some(v) => (dst, v),
            None => return Some(Err(RuntimeFault::DivByZero)),
        },
        Instr::Un { dst, op, a, width } => (dst, op.eval(width, val(a))),
        Instr::Cmp {
            dst,
            pred,
            a,
            b,
            width,
        } => (dst, u64::from(pred.eval(width, val(a), val(b)))),
        Instr::Cast { dst, a, from } => (dst, from.trunc(val(a))),
        Instr::GlobalAddr { dst, global } => (dst, globals[global.0 as usize].addr),
        _ => return None,
    };
    regs[dst.0 as usize] = v;
    Some(Ok(()))
}

enum InstrFlow {
    /// Instruction finished; advance the instruction pointer.
    Advance,
    /// Control transferred (call pushed a frame); do not advance.
    Redirected,
    /// Thread blocked; the scheduler takes over.
    Blocked,
}

enum StepResult {
    Continue,
    Blocked,
    ThreadDone,
    Fault(RuntimeFault),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::error::FailureKind;
    use crate::trace::VecSink;

    fn run_src(src: &str, inputs: &[(u32, Vec<u8>)]) -> RunReport<NullSink> {
        let p = compile(src).unwrap();
        let mut env = Env::new();
        for (s, b) in inputs {
            env.push_input(*s, b);
        }
        Machine::new(&p, env).run()
    }

    #[test]
    fn arithmetic_and_print() {
        let r = run_src("fn main() { let x: u32 = 6 * 7; print(x); }", &[]);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn loops_and_calls() {
        let r = run_src(
            r#"
            fn fib(n: u32) -> u32 {
                if n < 2 { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { print(fib(10)); }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![55]);
    }

    #[test]
    fn globals_and_arrays() {
        let r = run_src(
            r#"
            global V: [u32; 8];
            global sum: u32 = 5;
            fn main() {
                for i: u32 = 0; i < 8; i = i + 1 { V[i] = i * i; }
                for i: u32 = 0; i < 8; i = i + 1 { sum = sum + V[i]; }
                print(sum);
            }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![145]); // 5 + sum of squares 0..7 (140)
    }

    #[test]
    fn inputs_feed_execution() {
        let r = run_src(
            "fn main() { let a: u32 = input_u32(0); let b: u32 = input_u32(0); print(a + b); }",
            &[(0, [3u32.to_le_bytes(), 4u32.to_le_bytes()].concat())],
        );
        assert_eq!(r.output, vec![7]);
    }

    #[test]
    fn abort_fails_with_stack() {
        let r = run_src(
            "fn inner() { abort(\"bad\"); }\nfn outer() { inner(); }\nfn main() { outer(); }",
            &[],
        );
        let RunOutcome::Failure(f) = r.outcome else {
            panic!("expected failure")
        };
        assert_eq!(f.fault.kind(), FailureKind::Abort);
        assert_eq!(f.call_stack.len(), 3);
    }

    #[test]
    fn null_deref_detected() {
        let r = run_src("fn main() { let v: u32 = load32(0); print(v); }", &[]);
        let RunOutcome::Failure(f) = r.outcome else {
            panic!()
        };
        assert_eq!(f.fault.kind(), FailureKind::NullDeref);
    }

    #[test]
    fn use_after_free_detected() {
        let r = run_src(
            "fn main() { let p: u64 = alloc(16); free(p); let v: u8 = load8(p); print(v); }",
            &[],
        );
        let RunOutcome::Failure(f) = r.outcome else {
            panic!()
        };
        assert!(matches!(f.fault, RuntimeFault::UseAfterFree { .. }));
    }

    #[test]
    fn stack_overrun_is_latent() {
        // Writing past buf corrupts sentinel in the same frame; no fault at
        // the overflow itself, but the corruption is visible.
        let r = run_src(
            r#"
            fn main() {
                var buf: [u8; 16];
                var sentinel: [u8; 16];
                buf[20] = 7;
                print(sentinel[4]);
            }
            "#,
            &[],
        );
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, vec![7]);
    }

    #[test]
    fn branch_trace_is_recorded() {
        let p = compile(
            "fn main() { let x: u32 = input_u32(0); if x < 10 { print(1); } else { print(2); } }",
        )
        .unwrap();
        let mut env = Env::new();
        env.push_input(0, &5u32.to_le_bytes());
        let r = Machine::with_sink(&p, env, VecSink::new()).run();
        assert_eq!(r.sink.branches(), vec![true]);
        assert_eq!(r.output, vec![1]);
    }

    #[test]
    fn ptwrite_reaches_sink() {
        let p = compile("fn main() { let x: u32 = 3; ptwrite(x + 1); }").unwrap();
        let r = Machine::with_sink(&p, Env::new(), VecSink::new()).run();
        assert_eq!(r.sink.ptwrites(), vec![4]);
    }

    #[test]
    fn threads_join_and_share_memory() {
        let r = run_src(
            r#"
            global counter: u32;
            fn worker(n: u32) {
                for i: u32 = 0; i < n; i = i + 1 {
                    lock(1);
                    counter = counter + 1;
                    unlock(1);
                }
            }
            fn main() {
                let t1: u64 = spawn worker(100);
                let t2: u64 = spawn worker(100);
                join(t1);
                join(t2);
                print(counter);
            }
            "#,
            &[],
        );
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, vec![200]);
    }

    #[test]
    fn unsynchronized_race_can_lose_updates() {
        let src = r#"
            global counter: u32;
            fn worker(n: u32) {
                for i: u32 = 0; i < n; i = i + 1 {
                    let c: u32 = counter;
                    counter = c + 1;
                }
            }
            fn main() {
                let t1: u64 = spawn worker(2000);
                let t2: u64 = spawn worker(2000);
                join(t1);
                join(t2);
                print(counter);
            }
        "#;
        let p = compile(src).unwrap();
        let lost = (0..8).any(|seed| {
            let r = Machine::new(&p, Env::new())
                .with_sched(SchedConfig {
                    quantum: 37,
                    seed,
                    max_instrs: 10_000_000,
                })
                .run();
            r.output[0] < 4000
        });
        assert!(lost, "some seed should lose an update");
    }

    #[test]
    fn deadlock_detected() {
        let r = run_src(
            r#"
            fn a() { lock(1); lock(2); unlock(2); unlock(1); }
            fn b() { lock(2); lock(1); unlock(1); unlock(2); }
            fn main() {
                let t1: u64 = spawn a();
                let t2: u64 = spawn b();
                join(t1);
                join(t2);
            }
            "#,
            &[],
        );
        // With default quantum the two critical sections may or may not
        // interleave; accept either a deadlock or completion, but never a
        // wrong answer.
        match r.outcome {
            RunOutcome::Completed => {}
            RunOutcome::Failure(f) => assert!(matches!(f.fault, RuntimeFault::Deadlock)),
        }
    }

    #[test]
    fn hang_budget_trips() {
        let p = compile("fn main() { let i: u32 = 0; while true { i = i + 1; } }").unwrap();
        let r = Machine::new(&p, Env::new())
            .with_sched(SchedConfig {
                quantum: 100,
                seed: 1,
                max_instrs: 10_000,
            })
            .run();
        let RunOutcome::Failure(f) = r.outcome else {
            panic!()
        };
        assert!(matches!(f.fault, RuntimeFault::Hang));
    }

    #[test]
    fn input_exhaustion_faults() {
        let r = run_src("fn main() { let a: u32 = input_u32(0); print(a); }", &[]);
        let RunOutcome::Failure(f) = r.outcome else {
            panic!()
        };
        assert!(matches!(f.fault, RuntimeFault::InputExhausted { .. }));
    }

    #[test]
    fn clock_builtin_reads_env_clock() {
        let p = compile("fn main() { print(clock()); print(clock()); }").unwrap();
        let mut env = Env::new();
        env.set_clock(100, 5);
        let r = Machine::new(&p, env).run();
        assert_eq!(r.output, vec![100, 105]);
    }

    #[test]
    fn nested_calls_restore_stack_frames() {
        let r = run_src(
            r#"
            fn leaf(x: u32) -> u32 {
                var buf: [u32; 4];
                buf[0] = x;
                buf[1] = x * 2;
                return buf[0] + buf[1];
            }
            fn mid(x: u32) -> u32 {
                var tmp: [u32; 2];
                tmp[0] = leaf(x);
                tmp[1] = leaf(x + 1);
                return tmp[0] + tmp[1];
            }
            fn main() { print(mid(10)); }
            "#,
            &[],
        );
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, vec![30 + 33]);
    }

    #[test]
    fn instrumented_ptwrite_order_follows_execution() {
        let p = compile(
            r#"
            fn main() {
                for i: u32 = 0; i < 3; i = i + 1 {
                    ptwrite(i * 10);
                }
            }
            "#,
        )
        .unwrap();
        let r = Machine::with_sink(&p, Env::new(), VecSink::new()).run();
        assert_eq!(r.sink.ptwrites(), vec![0, 10, 20]);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let src = r#"
            global V: [u32; 32];
            fn main() {
                for i: u32 = 0; i < 32; i = i + 1 { V[i] = i * 3; }
                let x: u32 = input_u32(0);
                print(V[x % 32]);
                print(clock());
            }
        "#;
        let p = compile(src).unwrap();
        let mk_env = || {
            let mut e = Env::new();
            e.push_input(0, &9u32.to_le_bytes());
            e
        };
        let r1 = Machine::with_sink(&p, mk_env(), VecSink::new()).run();
        let r2 = Machine::with_sink(&p, mk_env(), VecSink::new()).run();
        assert_eq!(r1.output, r2.output);
        assert_eq!(r1.sink.events, r2.sink.events);
        assert_eq!(r1.instr_count, r2.instr_count);
    }
}
