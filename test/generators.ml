(* Shared QCheck2 generators for the whole test suite.

   Domain values (models, boards, architectures, full validation cases)
   are drawn by bridging a QCheck2-generated seed into the library's own
   seeded generators ({!Validate.Gen}), so property tests and the
   differential-validation sweep sample the very same distribution.
   Plain scalar generators used by several suites live here too, so the
   ranges (layer indices, tile counts, Pareto coordinates) stay
   consistent across files. *)

open QCheck2

let seed = Gen.map Int64.of_int (Gen.int_bound 0x3FFFFFFF)

let prng = Gen.map (fun s -> Util.Prng.create ~seed:s) seed

(* ------------------------------------------------ domain generators *)

let model = Gen.map (fun rng -> Validate.Gen.model rng ~index:0) prng

let synthetic_model =
  Gen.map (fun rng -> Validate.Gen.synthetic_model rng ~index:0) prng

let board = Gen.map (fun rng -> Validate.Gen.board rng ~index:0) prng

let case = Gen.map (fun rng -> Validate.Gen.case rng ~index:0) prng

let arch_spec_for m =
  Gen.map
    (fun rng -> Validate.Gen.arch rng ~num_layers:(Cnn.Model.num_layers m))
    prng

(* A custom design-space spec for a fixed layer count, as Dse.Space
   draws them. *)
let custom_spec ~num_layers =
  Gen.map
    (fun rng ->
      Dse.Space.random_spec rng ~num_layers
        ~ce_counts:(List.filter (fun c -> c <= num_layers) [ 2; 3; 4; 5 ]))
    prng

(* ------------------------------------------------ scalar generators *)

(* A valid layer index of the ResNet-50 zoo model (53 layers), the
   reference workload of the tiling properties. *)
let res50_layer_index = Gen.int_range 0 52

let tile_count = Gen.int_range 1 200

(* (budget, workloads) for PE-distribution properties: budgets from a
   handful of PEs to a large board, over up to 8 engines. *)
let pe_budget_workloads =
  Gen.(
    pair (int_range 10 3000) (array_size (int_range 1 8) (int_range 0 1000)))

(* 2-D objective coordinates for Pareto properties. *)
let pareto_coords ~max_points =
  Gen.(
    list_size (int_range 1 max_points)
      (pair (float_range 0.0 10.0) (float_range 0.0 10.0)))

(* ------------------------------------------------ seeded properties *)

(* Every model of the extended zoo with its table, by abbreviation. *)
let zoo_tables =
  lazy
    (List.map
       (fun m -> (m.Cnn.Model.abbreviation, Cnn.Table.of_model m))
       (Cnn.Model_zoo.extended ()))

(* A seeded check_prop loop: [count] cases drawn from [gen] with a fixed
   seed, so a failure reproduces exactly, and the failing cases are
   counted and the first one printed. *)
let check_prop ~name ~seed ~count gen prop pp =
  let rand = Random.State.make [| seed |] in
  let failures = ref [] in
  for _ = 1 to count do
    let x = Gen.generate1 ~rand gen in
    if not (prop x) then failures := x :: !failures
  done;
  match List.rev !failures with
  | [] -> ()
  | first :: _ as fs ->
    Alcotest.failf "%s: %d of %d cases failed; first: %a" name
      (List.length fs) count pp first
