(** Exhaustive and guided exploration complements to random sampling.

    Random sampling (the paper's Fig. 10) covers the huge spaces; when the
    space slice is small — a fixed CE count with few tail segments — it can
    be enumerated exactly, and a promising design can be refined by local
    search over its boundaries (the paper's "take the most promising
    architectures as starting points ... explore architectures that
    mitigate these bottlenecks"). *)

val enumerate_specs :
  num_layers:int -> ces:int -> max_specs:int -> Arch.Custom.spec list
(** [enumerate_specs ~num_layers ~ces ~max_specs] lists every custom spec
    with exactly [ces] engines, in lexicographic order, stopping after
    [max_specs] (the caller bounds the work; the spaces explode).
    @raise Invalid_argument if [ces < 2]. *)

val exhaustive :
  ?max_specs:int ->
  ?session:Mccm.Eval_session.t ->
  ?domains:int ->
  ?clamp:bool ->
  ?pool:Util.Parallel.Pool.t ->
  ces:int ->
  Cnn.Model.t ->
  Platform.Board.t ->
  Explore.evaluated list
(** [exhaustive ~ces model board] evaluates every (up to [max_specs],
    default 20000) custom design with exactly [ces] engines; feasible
    ones, in enumeration order.  Specs are enumerated straight into an
    unboxed {!Space.Flat} buffer and decoded per evaluation.  [session]
    (default: a fresh one) memoizes segment terms across the
    lexicographic scan — neighbouring specs share nearly all blocks —
    and across calls; results are bit-identical with or without it.
    [domains] (default 1) runs the scan on a {!Crew}: one warm session
    fork per pool worker (after a sequential strided warm-up pass),
    deterministic contiguous chunks merged in order, forks absorbed at
    the end.  [domains] is clamped to [Domain.recommended_domain_count]
    unless [~clamp:false]; [pool] reuses a caller-owned domain pool
    (then [domains]/[clamp] are ignored).  The result is identical for
    every domain count. *)

type objective = [ `Throughput | `Latency ]

type search_stats = {
  enumerated : int;      (** specs in scope (after [max_specs]) *)
  evaluated : int;       (** specs actually run through the model *)
  pruned : int;          (** specs skipped by the admissible bound *)
  nodes : int;
      (** always 0: kept so existing readers of the field and of the CLI's
          [B&B node(s)] column still parse *)
  domains_used : int;
}

val round_length : crew_size:int -> int
(** Rows of the bound order one parallel round of {!exhaustive_best}
    covers on a crew of [crew_size] workers: one 256-row chunk per
    worker, or the whole order ([max_int]) when [crew_size <= 1]. *)

val exhaustive_best :
  ?max_specs:int ->
  ?session:Mccm.Eval_session.t ->
  ?domains:int ->
  ?clamp:bool ->
  ?pool:Util.Parallel.Pool.t ->
  ?prune:bool ->
  objective:objective ->
  ces:int ->
  Cnn.Model.t ->
  Platform.Board.t ->
  Explore.evaluated option * search_stats
(** [exhaustive_best ~objective ~ces model board] returns the first
    feasible spec (in enumeration order) attaining the best objective —
    highest throughput or lowest latency — plus search statistics.

    Specs are enumerated into a {!Space.Flat} buffer, and each row gets
    its admissible score bound once ({!Bounds.throughput_upper_bound_flat},
    or the negated {!Bounds.latency_lower_bound_flat}).  Rows are then
    visited by bound descending, rank ascending.  The visit skips a row
    whose bound ties the incumbent at a later rank, and stops at the
    first bound strictly below the incumbent; a spec is accepted on a
    higher score, or an equal score at an earlier rank.  Because the
    bounds are admissible, the returned design is bit-identical across
    [prune], [domains] and [pool].  With [~prune:false] (default true)
    every row is evaluated, in enumeration order.

    On a crew of more than one worker ([domains], clamped as in
    {!exhaustive}, or [pool]) the order is visited in rounds of
    {!round_length} rows.  Every chunk of a round starts from the
    round-start incumbent, and the chunk winners merge by (score,
    rank).  One worker evaluates no spec whose bound is below the
    winner's score; a crew evaluates at most one round of them.
    [nodes] is always 0. *)

type step = {
  moved : string;                 (** human-readable description *)
  spec : Arch.Custom.spec;
  metrics : Mccm.Metrics.t;
}

val neighbours :
  num_layers:int -> Arch.Custom.spec -> (string * Arch.Custom.spec) list
(** [neighbours ~num_layers spec] is the single-move neighbourhood
    {!local_search} climbs over — every boundary shift by one layer,
    pipelined-depth change by one, widest-tail-segment split and
    single-boundary merge that stays a valid spec — each with a
    human-readable move description. *)

val local_search :
  objective:(Mccm.Metrics.t -> float) ->
  ?max_steps:int ->
  ?session:Mccm.Eval_session.t ->
  ?domains:int ->
  ?clamp:bool ->
  ?pool:Util.Parallel.Pool.t ->
  ?bound:(Arch.Custom.spec -> float) ->
  Cnn.Model.t ->
  Platform.Board.t ->
  Arch.Custom.spec ->
  step list
(** [local_search ~objective model board seed] hill-climbs from [seed],
    at each step trying every {!neighbours} move, keeping the neighbour
    that most improves [objective] (higher is better).  Returns the
    improvement trajectory, seed first; stops at a local optimum or
    after [max_steps] (default 25) moves.  [session] (default: a fresh
    one) memoizes evaluation — a move touches at most two blocks, so
    only those are recomputed; results are bit-identical with or
    without it.  [domains] (default 1, clamped like {!exhaustive})
    evaluates each step's neighbourhood on one {!Crew} kept for the
    whole climb — domains spawn and sessions fork once per search, not
    once per step; [pool] reuses a caller-owned domain pool across
    searches.  [bound] (an admissible upper bound on the objective's
    score, e.g. {!Bounds.throughput_upper_bound} partially applied) skips
    neighbours that cannot strictly beat the current spec.  None of
    these change the trajectory. *)
