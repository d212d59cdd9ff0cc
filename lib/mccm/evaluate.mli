(** Bottom-up composition of block models into a full multiple-CE
    accelerator evaluation (paper Section IV-B, Eq. 8 and 9).

    Latency composes as the sum of block latencies (each input flows
    through the blocks in order, whether or not the blocks overlap on
    different inputs).  Throughput composes as the inverse of the slowest
    stage: with inter-segment (coarse-grained) pipelining each block is a
    stage working on its own input; without it the whole schedule repeats
    per input — except that a lone pipelined-CEs block overlaps successive
    inputs at tile granularity (Eq. 3).  A shared off-chip memory port
    additionally bounds throughput by total traffic over bandwidth.
    Buffers and accesses come from the buffer plan and the block models
    (Eq. 8/9: inter-segment interfaces are double-buffered on-chip or
    spilled). *)

type block_eval = {
  block_index : int;
  latency_s : float;          (** one-input latency through this block *)
  ii_s : float;               (** the block's initiation interval *)
  accesses : Access.t;
  segments : Breakdown.segment list;
}

type t = {
  metrics : Metrics.t;
  breakdown : Breakdown.t;
  blocks : block_eval list;
  initiation_interval_s : float;
      (** steady-state spacing between completed inputs — the inverse of
          throughput, and the paper's second ("batch") latency
          definition: time per input when processing a batch *)
  ii_compute_s : float;
      (** the compute side of the interval (slowest stage, or the whole
          schedule without coarse pipelining) before the memory-port
          bound; [initiation_interval_s = max ii_compute_s ii_memory_s].
          Exposed so admissible compute floors (e.g. [Dse.Bounds]) can
          be property-tested against the exact value they bound rather
          than only against the combined interval *)
  ii_memory_s : float;
      (** the shared-port side: total off-chip traffic over bandwidth —
          the exact value the DSE memory floor lower-bounds *)
}

val boundary_flags :
  Builder.Buffer_alloc.t -> num_blocks:int -> index:int -> bool * bool
(** [boundary_flags plan ~num_blocks ~index] is block [index]'s
    [(input_on_chip, output_on_chip)]: whether its input arrives and its
    output leaves through an on-chip inter-segment buffer.  The first
    block's input and the last block's output are always off-chip. *)

val run : ?cache:Seg_cache.t -> table:Cnn.Table.t -> Builder.Build.t -> t
(** [run ~table built] evaluates a built accelerator analytically,
    reading every per-layer scalar from [table] (a {!Cnn.Table} built
    from [built]'s model).  [cache] memoizes per-segment model results
    across calls sharing a (model, board) pair — see {!Seg_cache};
    results are bit-identical with and without it.  Most callers want
    {!Eval_session} instead of passing a cache directly.
    @raise Invalid_argument if [table] was built from another model. *)

val loses :
  cache:Seg_cache.t ->
  objective:[ `Throughput | `Latency ] ->
  cutoff:float ->
  Builder.Build.t ->
  bool
(** [loses ~cache ~objective ~cutoff built] is [true] only when [built]'s
    plan is infeasible, or when the blocks whose results [cache] already
    holds prove that {!run} would give a score strictly below [cutoff]:
    throughput, or minus the latency.  It probes the cache
    ({!Seg_cache.find_single}, {!Seg_cache.find_pipelined}) in block
    order and stops at the first proof, computing no segment model and
    counting no hit or miss.  Exact: [false] whenever the score is at or
    above [cutoff], ties included; [false] also whenever the cached
    blocks prove nothing. *)

val evaluate : Cnn.Model.t -> Platform.Board.t -> Arch.Block.arch -> t
(** [evaluate model board archi] builds a {!Cnn.Table}, builds with the
    Multiple-CE Builder and runs the cost model — the methodology's
    end-to-end entry point.  One-shot: it owns no memo, so repeated
    calls leave nothing behind.  Use {!Eval_session} to reuse work
    across calls. *)

val metrics : Cnn.Model.t -> Platform.Board.t -> Arch.Block.arch -> Metrics.t
(** Shorthand for [(evaluate ...).metrics]. *)
