let share_upper_bound ~budget ~engines ~workload ~total =
  if engines < 1 then invalid_arg "Pe_allocation.share_upper_bound: no engines";
  if budget < engines then
    invalid_arg "Pe_allocation.share_upper_bound: budget below engine count";
  if workload < 0 || total < 0 then
    invalid_arg "Pe_allocation.share_upper_bound: negative workload";
  let spare = budget - engines in
  (* [distribute] gives 1 (floor) + spare * w / total (proportional,
     integer division) + at most 1 (largest-remainder leftover); no
     engine can exceed the budget minus one PE for each other engine.
     A zero total falls back to uniform weights inside [distribute], so
     only the hard cap applies. *)
  let cap = spare + 1 in
  if total <= 0 || workload >= total then cap
  else min cap (2 + (spare * workload / total))

let distribute ~budget ~workloads =
  let n = Array.length workloads in
  if n = 0 then [||]
  else begin
    if budget < n then
      invalid_arg
        (Printf.sprintf
           "Pe_allocation.distribute: budget %d cannot give %d engines a PE"
           budget n);
    Array.iter
      (fun w ->
        if w < 0 then
          invalid_arg "Pe_allocation.distribute: negative workload")
      workloads;
    let total = Array.fold_left ( + ) 0 workloads in
    let weights = if total = 0 then Array.make n 1 else workloads in
    let wsum = Array.fold_left ( + ) 0 weights in
    (* Floor of one PE per engine, then proportional shares of the rest. *)
    let spare = budget - n in
    let extra = Array.map (fun w -> spare * w / wsum) weights in
    let leftover = spare - Array.fold_left ( + ) 0 extra in
    (* Leftover PEs go to the largest remainders, ties to the lower
       index: insert indices in ascending order, each after every
       remainder at least as large. *)
    let rem =
      Array.init n (fun i -> (spare * weights.(i)) - (extra.(i) * wsum))
    in
    let idx = Array.make n 0 in
    for i = 0 to n - 1 do
      let j = ref i in
      while !j > 0 && rem.(i) > rem.(idx.(!j - 1)) do
        idx.(!j) <- idx.(!j - 1);
        decr j
      done;
      idx.(!j) <- i
    done;
    for k = 0 to leftover - 1 do
      let i = idx.(k) in
      extra.(i) <- extra.(i) + 1
    done;
    Array.map (fun e -> 1 + e) extra
  end
