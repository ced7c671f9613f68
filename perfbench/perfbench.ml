(* perfbench: run one benchmark workload and print its figures.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
       --n 4 --t 0 [--mute 6] [--durable] \
       --nominal R --high R --burst N

   perfbench/run.py passes the workload's shape and frozen rates from
   perfbench/spec.json. The last line of standard output is one JSON object:
   correct, attempted, failed, metrics (name -> value) and detail. The exit
   code is 1 when a correctness gate failed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let n = ref 4 and t = ref 0 and mute = ref [] and durable = ref false in
  let nominal = ref 0.0 and high = ref 0.0 in
  let burst = ref 2000 in
  let ints s = List.map int_of_string (String.split_on_char ',' s) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME label for outputs");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--n", Arg.Set_int n, "N replicas");
      ("--t", Arg.Set_int t, "T fault bound");
      ("--mute", Arg.String (fun s -> mute := ints s), "PIDS mute replicas");
      ("--durable", Arg.Set durable, " WAL with group commit");
      ("--nominal", Arg.Set_float nominal, "R nominal rate (req/s)");
      ("--high", Arg.Set_float high, "R high rate (req/s)");
      ("--burst", Arg.Set_int burst, "N requests in the fixed closed-loop job");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "perfbench.exe [options]";
  if !nominal <= 0.0 || !high <= 0.0 then begin
    prerr_endline "perfbench: --nominal and --high are required";
    exit 2
  end;
  (* a replica that drops a connection must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let p =
    {
      Live.shape = { Deploy.n = !n; t = !t; mute = !mute; durable = !durable; coded = false };
      nominal = !nominal;
      high = !high;
      burst = !burst;
    }
  in
  let r =
    if !trace = 1 then Live.run_traced p ~seed:!seed ~seconds:!seconds ~workload:!workload
    else Live.run_plain p ~seed:!seed ~seconds:!seconds
  in
  let metrics =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.17g" k v) r.Live.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"detail\": %s, \
     \"ocaml\": \"%s\"}\n%!"
    r.Live.correct r.Live.attempted r.Live.failed metrics r.Live.detail Sys.ocaml_version;
  exit (if r.Live.correct then 0 else 1)
