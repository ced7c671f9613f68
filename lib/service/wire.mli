(** The client ↔ server wire protocol of the replicated service.

    Clients are leader-less: a request is submitted to {e all} replicas
    (first-commit-wins — every replica that applies it replies; the client
    keeps the first reply). Requests are identified by [(client, rid)] with
    [rid] strictly increasing per client, which makes retries idempotent:
    a replica that already applied [(client, rid)] answers from its session
    cache instead of re-executing.

    Framing is {!Dex_codec.Codec.Frame} over a plain TCP connection to any
    replica's service port; malformed frames terminate only the offending
    connection (the client is treated as Byzantine, symmetric with the
    replica-to-replica transport policy). *)

type request = {
  client : int;  (** unique per client within a deployment *)
  rid : int;  (** strictly increasing per client *)
  command : State_machine.command;
}

type outcome =
  | Applied of {
      output : State_machine.output;
      slot : int;  (** log slot whose batch carried the request *)
      provenance : Dex_core.Dex.provenance;
          (** decision path of that slot — the one-step fast path made
              measurable per request *)
    }
  | Busy  (** admission queue full; retry after backoff *)

type reply = { client : int; rid : int; outcome : outcome }

val request_codec : request Dex_codec.Codec.t

val reply_codec : reply Dex_codec.Codec.t

val provenance_codec : Dex_core.Dex.provenance Dex_codec.Codec.t

(** {2 Framed channel I/O}

    The client side of the wire over blocking channels, for tools that
    speak to a service port without a reactor. [write_request] buffers
    without flushing, so a sender can coalesce a wave of messages into one
    syscall — call [flush] when the wave is complete. [read_reply] raises
    [End_of_file] on a closed peer and {!Dex_codec.Codec.Decode_error} on
    malformed input. *)

val write_request : out_channel -> request -> unit

val read_reply : in_channel -> reply

val pp_request : Format.formatter -> request -> unit

val pp_reply : Format.formatter -> reply -> unit
