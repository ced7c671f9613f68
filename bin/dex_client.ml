(* Load-driving client for the replicated KV service (see bin/dex_server.ml).

     dex_server serve --port-base 7000 &
     dex_client --ports 7000,7001,7002,7003 --duration 10

   Submits to all replicas (leader-less, first-commit-wins) and reports
   throughput, latency percentiles, and the fraction of requests whose log
   slot decided on the paper's one-step path.

   Against a sharded deployment (dex_server serve --shards K), pass the same
   --shards K: --ports is then split into K consecutive equal groups (the
   order `serve` prints them in), every request is routed to its owning
   group through the same deterministic shard map the server uses, and the
   report aggregates across shards with a per-shard breakdown. *)

open Cmdliner
module Sm = Dex_service.State_machine
module Router = Dex_shard.Router

let workload_of ?(value_bytes = 0) name client =
  if value_bytes > 0 then begin
    (* Large-value mode: every op writes a [value_bytes]-byte opaque blob,
       spread over 16 keys, exercising the batch dissemination lane. *)
    let payload = String.make value_bytes 'x' in
    fun i -> Sm.Blob (Printf.sprintf "b%d" (i mod 16), payload)
  end
  else
    match name with
    | "add" -> fun i -> ignore i; Sm.Add ("k", 1)
    | "set" -> fun i -> Sm.Set (Printf.sprintf "c%d-k%d" client (i mod 16), i)
    | "mixed" ->
      fun i ->
        (match i mod 4 with
        | 0 -> Sm.Set (Printf.sprintf "k%d" (i mod 8), i)
        | 1 -> Sm.Add ("total", 1)
        | 2 -> Sm.Get (Printf.sprintf "k%d" (i mod 8))
        | _ -> Sm.Nop)
    | other -> failwith (Printf.sprintf "unknown workload %S (use add, set or mixed)" other)

(* The client is protocol-agnostic on the wire — replies carry commit
   provenance whatever lane the servers run — but which provenance is the
   lane's fast path differs: dex expedites to one step, the two-step and
   hbft lanes to two. [--protocol] picks the lane so the headline fraction
   matches the servers'. *)
let fast_path_of protocol =
  match Dex_core.Protocol_lane.id_of_string protocol with
  | None ->
    failwith (Printf.sprintf "unknown protocol %S (use dex, two-step or hbft)" protocol)
  | Some id ->
    let module PL = Dex_core.Protocol_lane in
    let fast p =
      match (id, p) with
      | PL.Dex, PL.One_step -> true
      | (PL.Kuo_chen | PL.Hbft), PL.Two_step -> true
      | _ -> false
    in
    let name =
      List.find fast PL.all_provenances |> PL.metric_of_provenance
    in
    (name, fast)

let print_fast_fraction ~protocol (report : Dex_service.Client.Load.report) =
  let fast_name, fast = fast_path_of protocol in
  let count p n = if fast p then n else 0 in
  let module PL = Dex_core.Protocol_lane in
  let hits =
    count PL.One_step report.Dex_service.Client.Load.one_step
    + count PL.Two_step report.Dex_service.Client.Load.two_step
  in
  let total = float_of_int (max 1 report.Dex_service.Client.Load.committed) in
  Format.printf "%s fraction (fast path): %.1f%%@."
    fast_name
    (100.0 *. float_of_int hits /. total)

(* Throughput mode: one router over K port groups (one group when the
   deployment is unsharded), the whole client population multiplexed
   through it. *)
let router_action ~protocol ports shards client clients duration timeout workload value_bytes =
  if List.length ports mod shards <> 0 then
    failwith
      (Printf.sprintf "--ports lists %d ports, not divisible into %d equal shard groups"
         (List.length ports) shards);
  let per = List.length ports / shards in
  let groups =
    List.init shards (fun i -> List.filteri (fun j _ -> j / per = i) ports)
  in
  let map = Dex_shard.Shard_map.create ~shards () in
  let r = Router.connect ~map ~client groups in
  let report =
    Router.Load.run_many ~clients:(max 1 clients) ~timeout ~duration r
      (workload_of ~value_bytes workload client)
  in
  Router.close r;
  Format.printf "%a@." Router.Load.pp_report report;
  print_fast_fraction ~protocol report.Router.Load.agg

let action ports_s shards client clients duration pace timeout attempts workload value_bytes
    protocol =
  (* --pace and --attempts shape the one-client latency harness only; the
     many-client and sharded harnesses would silently drop them. *)
  if (shards > 1 || clients > 1) && (Option.is_some pace || Option.is_some attempts) then
    `Error (true, "--pace and --attempts apply only with --clients 1 and --shards 1")
  else
  match
    let ports = List.map int_of_string (String.split_on_char ',' ports_s) in
    if shards > 1 || clients > 1 then
      router_action ~protocol ports shards client clients duration timeout workload
        value_bytes
    else begin
      (* Latency harness: one closed-loop client. *)
      let c = Dex_service.Client.connect ~client ports in
      let report =
        Dex_service.Client.Load.run ?pace ~timeout ?attempts ~duration c
          (workload_of ~value_bytes workload client)
      in
      Dex_service.Client.close c;
      Format.printf "%a@." Dex_service.Client.Load.pp_report report;
      print_fast_fraction ~protocol report
    end
  with
  | exception Failure m -> `Error (false, m)
  | exception Invalid_argument m -> `Error (false, m)
  | () -> `Ok ()

let ports_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "ports" ] ~doc:"Comma-separated replica service ports (loopback).")

let shards_t =
  Arg.(
    value & opt int 1
    & info [ "shards" ]
        ~doc:
          "Target a sharded deployment: split --ports into $(docv) consecutive equal \
           groups (shard order), route every request to its owning group through the \
           deterministic shard map, and report the cross-shard aggregate.")

let client_t = Arg.(value & opt int 1 & info [ "client" ] ~doc:"Client id (unique per deployment).")

let clients_t =
  Arg.(
    value & opt int 1
    & info [ "clients" ]
        ~doc:
          "Logical closed-loop clients multiplexed in one thread (ids \
           client..client+N-1); N > 1 is the throughput harness (the shard router's \
           engine, over one group unless --shards), 1 the latency harness.")

let duration_t = Arg.(value & opt float 10.0 & info [ "duration" ] ~doc:"Run time in seconds.")

let pace_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "pace" ]
        ~doc:
          "Minimum seconds between submissions (default 0 = closed loop; only with \
           --clients 1 --shards 1).")

let timeout_t =
  Arg.(value & opt float 1.0 & info [ "timeout" ] ~doc:"Per-attempt reply timeout (seconds).")

let attempts_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "attempts" ]
        ~doc:
          "Transmissions per request before giving up (default 5; only with --clients 1 \
           --shards 1).")

let workload_t =
  Arg.(value & opt string "add" & info [ "workload" ] ~doc:"Workload: add, set or mixed.")

let value_bytes_t =
  Arg.(
    value & opt int 0
    & info [ "value-bytes" ]
        ~doc:
          "Write $(docv)-byte opaque blob values instead of the named workload (0 = off). \
           Exercises the large-value dissemination path (see dex_server \
           --dissemination).")

let protocol_t =
  Arg.(
    value & opt string "dex"
    & info [ "protocol" ]
        ~doc:
          "Protocol lane the servers run: $(b,dex), $(b,two-step) or $(b,hbft). The wire \
           format is lane-independent; this only selects which commit provenance counts \
           as the fast path in the headline fraction (one-step for dex, two-step for the \
           others).")

let () =
  let info =
    Cmd.info "dex_client" ~version:"1.0.0"
      ~doc:"Closed-loop load generator for the DEX replicated KV service."
  in
  let term =
    Term.(
      ret
        (const action $ ports_t $ shards_t $ client_t $ clients_t $ duration_t $ pace_t
        $ timeout_t $ attempts_t $ workload_t $ value_bytes_t $ protocol_t))
  in
  exit (Cmd.eval (Cmd.v info term))
