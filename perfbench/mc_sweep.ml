(* The model checker's per-layer figures: an exhaustive budget-1 check of
   two n=7 t=1 P_freq dex scenarios — no fault, and process 0 equivocating
   — on one thread. Process 0 proposes 0 and one other process proposes 1;
   the seed decides whether the values are mirrored (0 and 1 swapped
   everywhere, the equivocation included). Mirroring preserves every
   margin, and a scenario's transition count depends only on its fault set,
   so every seed does the same work and the counts repeat exactly. *)

open Dex_mcheck
open Util
module M = Dex_model

let n = 7

let scenario ~mirror faults =
  let flip v = if mirror then 1 - v else v in
  {
    M.lane = Dex_core.Protocol_lane.Dex;
    kind = M.Freq;
    n;
    t = 1;
    proposals = flip 0 :: List.init (n - 1) (fun i -> flip (if i < 1 then 1 else 0));
    faults =
      List.map
        (function
          | p, M.Equivocate { v1; v2; cut } -> (p, M.Equivocate { v1 = flip v1; v2 = flip v2; cut })
          | f -> f)
        faults;
    mutation = None;
  }

let bounds =
  { Checker.delay_budget = 1; branch_width = 8; max_schedules = 200_000; max_steps = 10_000 }

(* Fails when the checker finds a violation or a cap truncated the search. *)
let layer ~seed =
  let g = Dex_stdext.Prng.create ~seed in
  let scenarios =
    List.map
      (fun faults -> scenario ~mirror:(Dex_stdext.Prng.bool g) faults)
      [ []; [ (0, M.Equivocate { v1 = 0; v2 = 1; cut = n / 2 }) ] ]
  in
  let t0 = now () in
  let stats =
    List.map
      (fun s ->
        let o = Checker.explore ~sys:(M.system s) ~bounds ~check:(M.check s) () in
        if o.Checker.violation <> None then failwith "model checker: oracle violation";
        if not o.Checker.stats.Checker.exhausted then failwith "model checker: search truncated";
        o.Checker.stats)
      scenarios
  in
  let elapsed = now () -. t0 in
  let sum f = float_of_int (List.fold_left (fun acc st -> acc + f st) 0 stats) in
  let transitions = sum (fun st -> st.Checker.transitions) in
  [
    ("mc.transitions", transitions);
    ("mc.schedules", sum (fun st -> st.Checker.schedules));
    ("mc.fp_prunes", sum (fun st -> st.Checker.fp_prunes));
    ("mc.sleep_prunes", sum (fun st -> st.Checker.sleep_prunes));
    ("mc.transitions_per_s", div transitions elapsed);
  ]
