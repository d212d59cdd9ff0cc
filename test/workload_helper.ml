(* Tiny shared helpers for builder and model tests. *)

let assignment () =
  Array.init 3 (fun slot ->
      Builder.Workload.slot_layers ~ces:3 ~first:0 ~last:6 ~slot)

(* A session-less build of [archi], reading per-layer scalars from a
   fresh table of [model]. *)
let build ?options model board archi =
  Builder.Build.build ?options ~table:(Cnn.Table.of_model model) model board
    archi

(* The analytical metrics of a built design. *)
let estimate (built : Builder.Build.t) =
  (Mccm.Evaluate.run ~table:(Cnn.Table.of_model built.Builder.Build.model) built)
    .Mccm.Evaluate.metrics
