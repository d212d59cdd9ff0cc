(** The differential-validation invariant suite.

    Each invariant is a named check over a fully evaluated case — the
    analytical evaluation plus two simulator runs (realistic and ideal
    configurations).  The default suite checks, in order:

    - {b sanity}: metrics are positive and finite; a feasible plan fits
      its board's BRAM.
    - {b cache-exact}: replaying the case twice through a fresh
      {!Mccm.Eval_session} (cold caches, then a whole-architecture hit)
      returns metrics bit-identical to the uncached evaluation.
    - {b sim-dominates}: the realistic simulator can only be slower than
      the analytical lower bound; byte counts replay exactly; discrete
      BRAM banks can only round buffers up.
    - {b ideal-exact}: under {!Sim.Sim_config.ideal} the simulator and
      the model agree within {!Envelope.exact}.
    - {b realistic-envelope}: per-metric relative error against the
      realistic simulator stays inside the documented envelope.
    - {b mono-bandwidth} / {b mono-dsps} / {b mono-bram}: metamorphic
      monotonicity laws under doubling one board resource.  When the
      builder's plan survives the scaling unchanged the law is provable
      and enforced strictly; when the heuristic planner re-plans, only a
      loose catastrophe bound ([replan_slack]) applies — the greedy
      planner is genuinely non-monotone (observed up to +37% latency for
      doubled DSPs on BRAM-starved boards), and that is a planner
      quality finding, not a model error.  docs/MODEL.md discusses the
      two tiers. *)

type ctx = {
  case : Case.t;
  table : Cnn.Table.t;           (** the case model's table *)
  built : Builder.Build.t;
  model_eval : Mccm.Evaluate.t;
  sim_real : Sim.Simulate.t;     (** {!Sim.Sim_config.default} *)
  sim_ideal : Sim.Simulate.t;    (** {!Sim.Sim_config.ideal} *)
}

type outcome = Pass | Skip of string | Fail of string

type t = { name : string; check : ctx -> outcome }

val context : Case.t -> ctx
(** Build and evaluate a case through both engines.
    @raise Invalid_argument when the case's recipe cannot materialise. *)

val sanity : t
val cache_exact : t
val sim_dominates : t
val ideal_exact : t
val realistic_envelope : Envelope.t -> t
val mono_bandwidth : t
val mono_dsps : replan_slack:float -> t
val mono_bram : replan_slack:float -> t

val default_suite :
  ?envelope:Envelope.t -> ?replan_slack:float -> unit -> t list
(** The suite above; [envelope] defaults to {!Envelope.default},
    [replan_slack] to [0.5]. *)
