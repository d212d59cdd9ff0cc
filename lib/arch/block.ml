type t =
  | Single of { ce : int; first : int; last : int }
  | Pipelined of { ce_first : int; ce_last : int; first : int; last : int }

type style = Segmented | Segmented_rr | Hybrid | Custom

type arch = {
  name : string;
  style : style;
  blocks : t list;
  coarse_pipelined : bool;
}

let layer_range = function
  | Single { first; last; _ } -> (first, last)
  | Pipelined { first; last; _ } -> (first, last)

let num_layers_of_block b =
  let first, last = layer_range b in
  last - first + 1

let ce_count = function
  | Single _ -> 1
  | Pipelined { ce_first; ce_last; _ } -> ce_last - ce_first + 1

let ces_of_block = function
  | Single { ce; _ } -> [ ce ]
  | Pipelined { ce_first; ce_last; _ } ->
    List.init (ce_last - ce_first + 1) (fun i -> ce_first + i)

let validate_block b =
  let first, last = layer_range b in
  if first < 0 || last < first then
    invalid_arg "Block.arch: invalid layer range in block";
  match b with
  | Single { ce; _ } ->
    if ce < 0 then invalid_arg "Block.arch: negative CE index"
  | Pipelined { ce_first; ce_last; _ } ->
    if ce_first < 0 || ce_last < ce_first then
      invalid_arg "Block.arch: invalid CE range in block"

let arch ~name ~style ~blocks ~coarse_pipelined ~num_layers =
  if blocks = [] then invalid_arg "Block.arch: no blocks";
  List.iter validate_block blocks;
  let next =
    List.fold_left
      (fun expected b ->
        let first, last = layer_range b in
        if first <> expected then
          invalid_arg
            (Printf.sprintf
               "Block.arch: block starts at layer %d, expected %d" first
               expected);
        last + 1)
      0 blocks
  in
  if next <> num_layers then
    invalid_arg
      (Printf.sprintf "Block.arch: blocks cover %d layers, model has %d" next
         num_layers);
  { name; style; blocks; coarse_pipelined }

let num_blocks a = List.length a.blocks

(* Blocks nearly always take ascending, disjoint CE ranges, whose sizes
   simply add up; only other layouts pay for a distinct count. *)
let total_ces a =
  let rec ascending next acc = function
    | [] -> Some acc
    | b :: rest ->
      let lo, hi =
        match b with
        | Single { ce; _ } -> (ce, ce)
        | Pipelined { ce_first; ce_last; _ } -> (ce_first, ce_last)
      in
      if lo < next then None else ascending (hi + 1) (acc + hi - lo + 1) rest
  in
  match ascending 0 0 a.blocks with
  | Some n -> n
  | None ->
    List.length
      (List.sort_uniq Int.compare (List.concat_map ces_of_block a.blocks))

let style_to_string = function
  | Segmented -> "Segmented"
  | Segmented_rr -> "SegmentedRR"
  | Hybrid -> "Hybrid"
  | Custom -> "Custom"

let pp_block ppf b =
  let first, last = layer_range b in
  let pp_layers ppf () =
    if first = last then Format.fprintf ppf "L%d" (first + 1)
    else Format.fprintf ppf "L%d-L%d" (first + 1) (last + 1)
  in
  match b with
  | Single { ce; _ } -> Format.fprintf ppf "%a:CE%d" pp_layers () (ce + 1)
  | Pipelined { ce_first; ce_last; _ } ->
    Format.fprintf ppf "%a:CE%d-CE%d" pp_layers () (ce_first + 1)
      (ce_last + 1)

let pp ppf a =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_block)
    a.blocks
