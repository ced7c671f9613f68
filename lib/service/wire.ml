type request = { client : int; rid : int; command : State_machine.command }

type outcome =
  | Applied of {
      output : State_machine.output;
      slot : int;
      provenance : Dex_core.Dex.provenance;
    }
  | Busy

type reply = { client : int; rid : int; outcome : outcome }

let request_codec =
  let open Dex_codec.Codec in
  conv
    (fun { client; rid; command } -> (client, rid, command))
    (fun (client, rid, command) -> { client; rid; command })
    (triple int int State_machine.command_codec)

(* The single provenance wire mapping now lives with the provenance type
   itself; this alias keeps the historical name (and bytes). *)
let provenance_codec = Dex_core.Protocol_lane.provenance_codec

let outcome_codec =
  let open Dex_codec.Codec in
  variant ~name:"Wire.outcome"
    (function
      | Applied { output; slot; provenance } ->
        ( 0,
          fun buf ->
            State_machine.output_codec.write buf output;
            int.write buf slot;
            provenance_codec.write buf provenance )
      | Busy -> (1, fun _ -> ()))
    (fun tag r ->
      match tag with
      | 0 ->
        let output = State_machine.output_codec.read r in
        let slot = int.read r in
        let provenance = provenance_codec.read r in
        Applied { output; slot; provenance }
      | 1 -> Busy
      | other -> bad_tag ~name:"Wire.outcome" other)

let reply_codec =
  let open Dex_codec.Codec in
  conv
    (fun { client; rid; outcome } -> (client, rid, outcome))
    (fun (client, rid, outcome) -> { client; rid; outcome })
    (triple int int outcome_codec)

let write_request oc r = Dex_codec.Codec.Frame.to_channel_buffered oc request_codec r

let read_reply ic = Dex_codec.Codec.Frame.from_channel ic reply_codec

let pp_request ppf { client; rid; command } =
  Format.fprintf ppf "req c%d#%d %a" client rid State_machine.pp_command command

let pp_reply ppf { client; rid; outcome } =
  match outcome with
  | Busy -> Format.fprintf ppf "reply c%d#%d BUSY" client rid
  | Applied { output; slot; provenance } ->
    Format.fprintf ppf "reply c%d#%d %a (slot %d, %a)" client rid State_machine.pp_output
      output slot Dex_core.Dex.pp_provenance provenance
