(* See the interface for the contract. Implementation notes:

   - Counters and settable gauges are [int Atomic.t]: increments from the
     event loops of several replicas and mesh readers never need a lock,
     and a snapshot is a plain load per metric.
   - Timers are 64 atomic buckets keyed by the bit-length of the sample in
     nanoseconds, plus an atomic running sum. An observation is one
     fetch-and-add and one add — no allocation, no float math beyond the
     caller's own stamping.
   - The name table is guarded by a mutex, but registration happens at
     component construction, never on a hot path. *)

type counter = int Atomic.t

type gauge = int Atomic.t

let timer_buckets = 64

type timer = { t_buckets : int Atomic.t array; t_sum_ns : int Atomic.t }

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_gauge_fn of (unit -> int) ref
  | M_timer of timer

type t = { lock : Mutex.t; metrics : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); metrics = Hashtbl.create 32 }

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_gauge_fn _ -> "gauge"
  | M_timer _ -> "timer"

let register t name ~make ~match_ =
  Mutex.lock t.lock;
  let m =
    match Hashtbl.find_opt t.metrics name with
    | Some existing -> (
      match match_ existing with
      | Some v ->
        Mutex.unlock t.lock;
        v
      | None ->
        let k = kind_name existing in
        Mutex.unlock t.lock;
        invalid_arg
          (Printf.sprintf "Registry: %S is already registered as a %s" name k))
    | None ->
      let v, m = make () in
      Hashtbl.replace t.metrics name m;
      Mutex.unlock t.lock;
      ignore m;
      v
  in
  m

let counter t name =
  register t name
    ~make:(fun () ->
      let c = Atomic.make 0 in
      (c, M_counter c))
    ~match_:(function M_counter c -> Some c | _ -> None)

let gauge t name =
  register t name
    ~make:(fun () ->
      let g = Atomic.make 0 in
      (g, M_gauge g))
    ~match_:(function M_gauge g -> Some g | _ -> None)

let gauge_fn t name f =
  register t name
    ~make:(fun () ->
      let r = ref f in
      (r, M_gauge_fn r))
    ~match_:(function
      | M_gauge_fn r ->
        r := f;
        Some r
      | _ -> None)
  |> ignore

let timer t name =
  register t name
    ~make:(fun () ->
      let tm =
        {
          t_buckets = Array.init timer_buckets (fun _ -> Atomic.make 0);
          t_sum_ns = Atomic.make 0;
        }
      in
      (tm, M_timer tm))
    ~match_:(function M_timer tm -> Some tm | _ -> None)

let incr c = Atomic.incr c

let add c n = ignore (Atomic.fetch_and_add c n)

let value c = Atomic.get c

let set g v = Atomic.set g v

let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

let gauge_value g = Atomic.get g

(* Bucket index: bit length of the sample, i.e. bucket [i] covers
   [2^(i-1), 2^i) ns; samples <= 1 ns land in bucket 0. *)
let bucket_of_ns ns =
  if ns <= 1 then 0
  else
    let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
    min (timer_buckets - 1) (bits ns 0 + 1)

let observe_ns tm ns =
  Atomic.incr tm.t_buckets.(bucket_of_ns ns);
  ignore (Atomic.fetch_and_add tm.t_sum_ns (max 0 ns))

let observe_span tm seconds = observe_ns tm (int_of_float (seconds *. 1e9))

(* ------------------------------ snapshots ------------------------------ *)

type dist = { count : int; sum_ns : float; buckets : int array }

let dist_mean_ns d = if d.count = 0 then 0.0 else d.sum_ns /. float_of_int d.count

let dist_quantile_ns d q =
  if d.count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int d.count))) in
    let rank = min d.count rank in
    let acc = ref 0 and found = ref 0 in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= rank then begin
             found := i;
             raise Exit
           end)
         d.buckets
     with Exit -> ());
    (* Upper bound of the covering bucket: 2^i ns. *)
    ldexp 1.0 !found
  end

type value_kind = Counter of int | Gauge of int | Dist of dist

type snapshot = (string * value_kind) list

let snapshot t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | M_counter c -> Counter (Atomic.get c)
          | M_gauge g -> Gauge (Atomic.get g)
          | M_gauge_fn f -> Gauge (try !f () with _ -> 0)
          | M_timer tm ->
            let buckets = Array.map Atomic.get tm.t_buckets in
            Dist
              {
                count = Array.fold_left ( + ) 0 buckets;
                sum_ns = float_of_int (Atomic.get tm.t_sum_ns);
                buckets;
              }
        in
        (name, v) :: acc)
      t.metrics []
  in
  Mutex.unlock t.lock;
  List.sort compare entries

let merge snapshots =
  let tbl : (string, value_kind) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (name, v) ->
         match (Hashtbl.find_opt tbl name, v) with
         | None, _ ->
           order := name :: !order;
           Hashtbl.replace tbl name v
         | Some (Counter a), Counter b -> Hashtbl.replace tbl name (Counter (a + b))
         | Some (Gauge a), Gauge b -> Hashtbl.replace tbl name (Gauge (a + b))
         | Some (Dist a), Dist b ->
           Hashtbl.replace tbl name
             (Dist
                {
                  count = a.count + b.count;
                  sum_ns = a.sum_ns +. b.sum_ns;
                  buckets = Array.mapi (fun i c -> c + b.buckets.(i)) a.buckets;
                })
         | Some _, _ -> ()))
    snapshots;
  List.sort compare (List.map (fun n -> (n, Hashtbl.find tbl n)) !order)

let get snap name =
  match List.assoc_opt name snap with
  | Some (Counter v) | Some (Gauge v) -> v
  | Some (Dist d) -> d.count
  | None -> 0

let find_dist snap name =
  match List.assoc_opt name snap with Some (Dist d) -> Some d | _ -> None

let to_text snap =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter v | Gauge v -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
      | Dist d ->
        Buffer.add_string buf
          (Printf.sprintf "%s count=%d mean=%.1fus p50=%.1fus p99=%.1fus\n" name d.count
             (dist_mean_ns d /. 1e3)
             (dist_quantile_ns d 0.5 /. 1e3)
             (dist_quantile_ns d 0.99 /. 1e3)))
    snap;
  Buffer.contents buf

let to_json snap =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\n  %S: " name);
      match v with
      | Counter v | Gauge v -> Buffer.add_string buf (string_of_int v)
      | Dist d ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"count\": %d, \"mean_ns\": %.1f, \"p50_ns\": %.1f, \"p99_ns\": %.1f}"
             d.count (dist_mean_ns d) (dist_quantile_ns d 0.5) (dist_quantile_ns d 0.99)))
    snap;
  Buffer.add_string buf "\n}";
  Buffer.contents buf
