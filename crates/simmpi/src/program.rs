//! Abstract per-rank programs: the unit the discrete-event engine
//! executes.
//!
//! Kernels generate one [`Program`] per rank and simulation step. Compute
//! phases carry their duration (supplied by the node-level performance
//! model); communication operations carry only message metadata — exactly
//! the information a time-accurate MPI replay needs.

/// MPI message tag.
pub type Tag = u32;

/// Identifier of a non-blocking request, local to a rank.
pub type ReqId = u32;

/// One operation of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Local computation for `seconds` of wall-clock time.
    Compute { seconds: f64 },
    /// Blocking standard-mode send (eager below the protocol threshold,
    /// synchronous rendezvous at or above it — the regime the paper's
    /// minisweep analysis hinges on).
    Send { to: usize, tag: Tag, bytes: usize },
    /// Blocking receive.
    Recv { from: usize, tag: Tag },
    /// Combined send+receive (`MPI_Sendrecv`): deadlock-free pairwise
    /// exchange.
    Sendrecv {
        to: usize,
        send_bytes: usize,
        from: usize,
        tag: Tag,
    },
    /// Non-blocking send; completed by a matching [`Op::Wait`].
    Isend {
        to: usize,
        tag: Tag,
        bytes: usize,
        req: ReqId,
    },
    /// Non-blocking receive; completed by a matching [`Op::Wait`].
    Irecv { from: usize, tag: Tag, req: ReqId },
    /// Wait for one non-blocking request.
    Wait { req: ReqId },
    /// Global all-reduce of a buffer of `bytes` (the dominant collective
    /// of the suite: seven of nine benchmarks use it).
    Allreduce { bytes: usize },
    /// Global barrier (used by `lbm` at every iteration; the paper notes
    /// it is avoidable).
    Barrier,
    /// Broadcast of `bytes` from `root` (binomial tree).
    Bcast { root: usize, bytes: usize },
    /// Reduction of `bytes` to `root` (binomial tree).
    Reduce { root: usize, bytes: usize },
    /// All-gather: every rank contributes `bytes`, everyone ends with
    /// `p × bytes` (ring algorithm).
    Allgather { bytes: usize },
    /// All-to-all personalized exchange of `bytes` per peer (pairwise).
    Alltoall { bytes: usize },
}

impl Op {
    pub fn compute(seconds: f64) -> Self {
        Op::Compute { seconds }
    }
    pub fn send(to: usize, tag: Tag, bytes: usize) -> Self {
        Op::Send { to, tag, bytes }
    }
    pub fn recv(from: usize, tag: Tag) -> Self {
        Op::Recv { from, tag }
    }
    pub fn sendrecv(to: usize, send_bytes: usize, from: usize, tag: Tag) -> Self {
        Op::Sendrecv {
            to,
            send_bytes,
            from,
            tag,
        }
    }
    pub fn isend(to: usize, tag: Tag, bytes: usize, req: ReqId) -> Self {
        Op::Isend {
            to,
            tag,
            bytes,
            req,
        }
    }
    pub fn irecv(from: usize, tag: Tag, req: ReqId) -> Self {
        Op::Irecv { from, tag, req }
    }
    pub fn wait(req: ReqId) -> Self {
        Op::Wait { req }
    }
    pub fn allreduce(bytes: usize) -> Self {
        Op::Allreduce { bytes }
    }
    pub fn bcast(root: usize, bytes: usize) -> Self {
        Op::Bcast { root, bytes }
    }
    pub fn reduce(root: usize, bytes: usize) -> Self {
        Op::Reduce { root, bytes }
    }
    pub fn allgather(bytes: usize) -> Self {
        Op::Allgather { bytes }
    }
    pub fn alltoall(bytes: usize) -> Self {
        Op::Alltoall { bytes }
    }

    /// True for operations that involve the network.
    pub fn is_communication(&self) -> bool {
        !matches!(self, Op::Compute { .. })
    }

    /// True for collectives, which every rank calls in the same order.
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            Op::Allreduce { .. }
                | Op::Barrier
                | Op::Bcast { .. }
                | Op::Reduce { .. }
                | Op::Allgather { .. }
                | Op::Alltoall { .. }
        )
    }
}

/// The ordered list of operations one rank executes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub ops: Vec<Op>,
}

impl Program {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total compute seconds contained in the program.
    pub fn compute_seconds(&self) -> f64 {
        self.ops
            .iter()
            .map(|o| match o {
                Op::Compute { seconds } => *seconds,
                _ => 0.0,
            })
            .sum()
    }

    /// Total bytes sent by this rank (blocking + non-blocking +
    /// sendrecv; collectives not included).
    pub fn bytes_sent(&self) -> usize {
        self.ops
            .iter()
            .map(|o| match o {
                Op::Send { bytes, .. } | Op::Isend { bytes, .. } => *bytes,
                Op::Sendrecv { send_bytes, .. } => *send_bytes,
                _ => 0,
            })
            .sum()
    }

    /// Number of collective operations.
    pub fn collective_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Allreduce { .. }
                        | Op::Barrier
                        | Op::Bcast { .. }
                        | Op::Reduce { .. }
                        | Op::Allgather { .. }
                        | Op::Alltoall { .. }
                )
            })
            .count()
    }

    /// Structural sanity check: every `Wait` refers to a request that is
    /// currently *open* (created by `Isend`/`Irecv` and not yet waited
    /// on), and no request is left open at the end. Request ids may be
    /// reused after their `Wait`, matching MPI's freed request handles —
    /// the runner relies on this when concatenating identical time
    /// steps.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::BTreeSet;
        let mut open: BTreeSet<ReqId> = BTreeSet::new();
        for op in &self.ops {
            match op {
                Op::Isend { req, .. } | Op::Irecv { req, .. } if !open.insert(*req) => {
                    return Err(format!("request {req} created while still open"));
                }
                Op::Wait { req } if !open.remove(req) => {
                    return Err(format!("wait on request {req} which is not open"));
                }
                _ => {}
            }
        }
        if let Some(req) = open.iter().next() {
            return Err(format!("request {req} never waited on"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulators() {
        let mut p = Program::new();
        p.push(Op::compute(0.5));
        p.push(Op::send(1, 0, 100));
        p.push(Op::isend(2, 0, 200, 0));
        p.push(Op::wait(0));
        p.push(Op::sendrecv(3, 300, 3, 0));
        p.push(Op::allreduce(8));
        p.push(Op::Barrier);
        p.push(Op::compute(0.25));
        assert!((p.compute_seconds() - 0.75).abs() < 1e-12);
        assert_eq!(p.bytes_sent(), 600);
        assert_eq!(p.collective_count(), 2);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_orphan_wait() {
        let mut p = Program::new();
        p.push(Op::wait(7));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_double_create() {
        let mut p = Program::new();
        p.push(Op::irecv(0, 0, 1));
        p.push(Op::irecv(0, 0, 1));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_allows_reuse_after_wait() {
        let mut p = Program::new();
        p.push(Op::irecv(0, 0, 1));
        p.push(Op::wait(1));
        p.push(Op::isend(0, 0, 8, 1));
        p.push(Op::wait(1));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unwaited_request() {
        let mut p = Program::new();
        p.push(Op::isend(1, 0, 8, 3));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_accepts_interleaved_requests() {
        let mut p = Program::new();
        p.push(Op::irecv(1, 0, 0));
        p.push(Op::isend(1, 0, 64, 1));
        p.push(Op::compute(0.1));
        p.push(Op::wait(0));
        p.push(Op::wait(1));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn communication_predicate() {
        assert!(!Op::compute(1.0).is_communication());
        assert!(Op::Barrier.is_communication());
        assert!(Op::send(0, 0, 1).is_communication());
    }
}
