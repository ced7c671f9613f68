(* Tests for dex_codec and the per-protocol wire codecs: roundtrip unit
   tests, qcheck roundtrip properties, hostile-input rejection, frame
   behaviour, and a full DEX cluster over the codec-framed TCP transport. *)

open Dex_codec
open Dex_broadcast
open Dex_underlying

let roundtrip codec v = Codec.decode_exn codec (Codec.encode codec v)

let check_rt name codec pp v =
  Alcotest.check (Alcotest.testable pp ( = )) name v (roundtrip codec v)

(* ------------------------- primitives ------------------------- *)

let test_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (roundtrip Codec.int n))
    [ 0; 1; -1; 63; 64; -64; -65; 1000; -1000; max_int; min_int; 0x7FFFFFFF ]

let test_int_compact () =
  Alcotest.(check int) "small ints are 1 byte" 1 (String.length (Codec.encode Codec.int 5));
  Alcotest.(check int) "small negatives too" 1 (String.length (Codec.encode Codec.int (-5)))

let test_bool_roundtrip () =
  Alcotest.(check bool) "true" true (roundtrip Codec.bool true);
  Alcotest.(check bool) "false" false (roundtrip Codec.bool false)

let test_float_roundtrip () =
  List.iter
    (fun x -> Alcotest.(check (float 0.0)) (string_of_float x) x (roundtrip Codec.float x))
    [ 0.0; 1.5; -3.25; 1e300; -1e-300; infinity; neg_infinity ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (roundtrip Codec.string s))
    [ ""; "x"; "hello world"; String.make 10_000 'z'; "\x00\xff\x80 binary" ]

let test_option_list_pair () =
  let c = Codec.(list (pair (option int) string)) in
  let v = [ (Some 5, "a"); (None, ""); (Some (-9), "bc") ] in
  Alcotest.(check (list (pair (option int) string))) "nested" v (roundtrip c v)

let test_triple () =
  let c = Codec.(triple int bool string) in
  let v = (42, true, "x") in
  let got = roundtrip c v in
  Alcotest.(check bool) "triple" true (v = got)

(* ------------------------- hostile input ------------------------- *)

let decodes_err codec s =
  match Codec.decode codec s with Ok _ -> false | Error _ -> true

let test_truncated_rejected () =
  let encoded = Codec.encode Codec.string "hello" in
  let truncated = String.sub encoded 0 (String.length encoded - 1) in
  Alcotest.(check bool) "truncated string" true (decodes_err Codec.string truncated)

let test_trailing_rejected () =
  let encoded = Codec.encode Codec.int 5 ^ "extra" in
  Alcotest.(check bool) "trailing bytes" true (decodes_err Codec.int encoded)

let test_bad_bool_rejected () =
  Alcotest.(check bool) "bool byte 7" true (decodes_err Codec.bool "\x07")

let test_bad_option_tag_rejected () =
  Alcotest.(check bool) "option tag 9" true (decodes_err Codec.(option int) "\x09")

let test_huge_length_rejected () =
  (* A string claiming a 2^40 length must be rejected, not allocated. *)
  let buf = Buffer.create 16 in
  Codec.int.Codec.write buf (1 lsl 40);
  Alcotest.(check bool) "huge string length" true
    (decodes_err Codec.string (Buffer.contents buf))

let test_unknown_variant_tag_rejected () =
  let bad = Codec.encode Codec.int 99 in
  Alcotest.(check bool) "tag 99" true (decodes_err (Idb.codec Codec.int) bad)

let test_empty_input_rejected () =
  Alcotest.(check bool) "empty" true (decodes_err Codec.int "")

(* ------------------------- protocol codecs ------------------------- *)

module D = Dex_core.Dex.Make (Uc_oracle)
module Dl = Dex_core.Dex.Make (Uc_leader)
module Dmv = Dex_core.Dex.Make (Multivalued)
module B = Dex_baselines.Bosco.Make (Uc_oracle)
module K = Dex_baselines.Kuo_chen.Make (Uc_oracle)
module H = Dex_baselines.Hbft.Make (Uc_oracle)

let test_idb_codec () =
  let c = Idb.codec Codec.int in
  check_rt "init" c
    (fun ppf _ -> Format.fprintf ppf "msg")
    (Idb.Init 42);
  check_rt "echo" c (fun ppf _ -> Format.fprintf ppf "msg") (Idb.Echo { origin = 3; payload = -7 })

let test_bracha_codec () =
  let c = Bracha.codec Codec.int in
  List.iter
    (check_rt "bracha" c (fun ppf _ -> Format.fprintf ppf "msg"))
    [ Bracha.Initial 5; Bracha.Echo { origin = 0; payload = 1 }; Bracha.Ready { origin = 6; payload = -2 } ]

let test_mmr_codec () =
  List.iter
    (check_rt "mmr" Mmr.codec (fun ppf m -> Mmr.pp_msg ppf m))
    [ Mmr.Est (3, Bv.Bval Bv.One); Mmr.Aux (1, Bv.Zero); Mmr.Done Bv.One ]

let test_uc_leader_codec () =
  List.iter
    (check_rt "leader" Uc_leader.codec Uc_leader.pp_msg)
    [
      Uc_leader.Est 9;
      Uc_leader.Proposal (4, 7);
      Uc_leader.Prevote (2, Some 5);
      Uc_leader.Prevote (2, None);
      Uc_leader.Precommit (0, Some 1);
      Uc_leader.Wake (3, `Prevote);
      Uc_leader.Val (Bracha.rb_send 11);
    ]

let test_dex_codec () =
  List.iter
    (check_rt "dex" D.codec D.pp_msg)
    [
      D.Prop 5;
      D.Idb (Idb.Init 9);
      D.Idb (Idb.Echo { origin = 2; payload = 3 });
      D.Uc (Uc_oracle.Propose 4);
      D.Uc (Uc_oracle.Decision 8);
    ]

let test_dex_mv_codec () =
  List.iter
    (check_rt "dex-mv" Dmv.codec Dmv.pp_msg)
    [
      Dmv.Prop 5;
      Dmv.Uc (Multivalued.Val (Bracha.rb_send 3));
      Dmv.Uc (Multivalued.Bin (Mmr.Done Bv.Zero));
    ]

let test_bosco_codec () =
  List.iter
    (check_rt "bosco" B.codec B.pp_msg)
    [ B.Vote 5; B.Uc (Uc_oracle.Propose 1) ]

let test_kuo_chen_codec () =
  List.iter
    (check_rt "kuo-chen" K.codec K.pp_msg)
    [
      K.V1 5;
      K.V1 (-3);
      K.V2 0;
      K.V2 max_int;
      K.Uc (Uc_oracle.Propose 4);
      K.Uc (Uc_oracle.Decision 8);
    ]

let test_hbft_codec () =
  List.iter
    (check_rt "hbft" H.codec H.pp_msg)
    [
      H.Val 7;
      H.Val min_int;
      H.Order 1;
      H.Accept (-9);
      H.Timeout;
      H.Uc (Uc_oracle.Propose 0);
      H.Uc (Uc_oracle.Decision 2);
    ]

(* Property: random DEX-leader messages roundtrip. *)
let gen_leader_msg =
  QCheck.Gen.(
    let value = int_range (-100) 100 in
    let vote = opt value in
    oneof
      [
        map (fun v -> Uc_leader.Est v) value;
        map2 (fun r v -> Uc_leader.Proposal (r, v)) (int_bound 50) value;
        map2 (fun r v -> Uc_leader.Prevote (r, v)) (int_bound 50) vote;
        map2 (fun r v -> Uc_leader.Precommit (r, v)) (int_bound 50) vote;
        map
          (fun v -> Uc_leader.Val (Bracha.Initial v))
          value;
        map2
          (fun o v -> Uc_leader.Val (Bracha.Echo { origin = o; payload = v }))
          (int_bound 20) value;
      ])

let gen_kuo_chen_msg =
  QCheck.Gen.(
    let value = int_range (-1000) 1000 in
    oneof
      [
        map (fun v -> K.V1 v) value;
        map (fun v -> K.V2 v) value;
        map (fun v -> K.Uc (Uc_oracle.Propose v)) value;
        map (fun v -> K.Uc (Uc_oracle.Decision v)) value;
      ])

let gen_hbft_msg =
  QCheck.Gen.(
    let value = int_range (-1000) 1000 in
    oneof
      [
        map (fun v -> H.Val v) value;
        map (fun v -> H.Order v) value;
        map (fun v -> H.Accept v) value;
        return H.Timeout;
        map (fun v -> H.Uc (Uc_oracle.Propose v)) value;
        map (fun v -> H.Uc (Uc_oracle.Decision v)) value;
      ])

let prop_kuo_chen_roundtrip =
  QCheck.Test.make ~name:"Kuo-Chen codec roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" K.pp_msg) gen_kuo_chen_msg)
    (fun m -> roundtrip K.codec m = m)

let prop_hbft_roundtrip =
  QCheck.Test.make ~name:"hBFT codec roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" H.pp_msg) gen_hbft_msg)
    (fun m -> roundtrip H.codec m = m)

let prop_leader_roundtrip =
  QCheck.Test.make ~name:"Uc_leader codec roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Uc_leader.pp_msg) gen_leader_msg)
    (fun m -> roundtrip Uc_leader.codec m = m)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int codec roundtrip" ~count:1000 QCheck.int (fun n ->
      roundtrip Codec.int n = n)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string codec roundtrip" ~count:500 QCheck.string (fun s ->
      roundtrip Codec.string s = s)

(* ------------------------- actions ------------------------- *)

(* Protocol.action round-trips, over both a real protocol message type and
   a view-shaped payload ((V ∪ {⊥})^n as a list), hitting the boundary
   cases transports never produce but replay files may: empty views,
   all-⊥ views, empty and huge tags, extreme values and delays. *)

open Dex_net

let action_testable pp_msg =
  let pp ppf = function
    | Protocol.Send (dst, m) -> Format.fprintf ppf "Send(%d, %a)" dst pp_msg m
    | Protocol.Decide { value; tag } -> Format.fprintf ppf "Decide(%d, %S)" value tag
    | Protocol.Set_timer { delay; msg } ->
      Format.fprintf ppf "Set_timer(%g, %a)" delay pp_msg msg
  in
  Alcotest.testable pp ( = )

let test_action_codec_boundaries () =
  let view_c = Codec.(list (option int)) in
  let c = Protocol.action_codec view_c in
  let pp_view ppf v = Format.fprintf ppf "view[%d]" (List.length v) in
  List.iter
    (fun a -> Alcotest.check (action_testable pp_view) "action" a (roundtrip c a))
    [
      Protocol.Send (0, []);                                   (* empty view *)
      Protocol.Send (6, [ None; None; None ]);                 (* all-⊥ view *)
      Protocol.Send (max_int, List.init 1000 (fun i -> Some i));
      Protocol.Decide { value = min_int; tag = "" };
      Protocol.Decide { value = max_int; tag = String.make 10_000 't' };
      Protocol.Set_timer { delay = 0.0; msg = [] };
      Protocol.Set_timer { delay = infinity; msg = [ Some 0; None ] };
    ];
  (* And over the DEX message type used on the wire. *)
  let cd = Protocol.action_codec D.codec in
  List.iter
    (fun a -> Alcotest.check (action_testable D.pp_msg) "dex action" a (roundtrip cd a))
    [
      Protocol.Send (3, D.Prop 17);
      Protocol.Send (0, D.Idb (Idb.Echo { origin = 2; payload = -5 }));
      Protocol.decide ~tag:"one-step" 4;
      Protocol.Set_timer { delay = 2.5; msg = D.Uc (Uc_oracle.Propose 1) };
    ]

let gen_action =
  QCheck.Gen.(
    oneof
      [
        map2 (fun d m -> Protocol.Send (d, m)) (int_bound 100) gen_leader_msg;
        map2
          (fun value tag -> Protocol.Decide { value; tag })
          (int_range (-1000) 1000) string;
        map2
          (fun delay m -> Protocol.Set_timer { delay = abs_float delay; msg = m })
          pfloat gen_leader_msg;
      ])

let prop_action_roundtrip =
  let c = Protocol.action_codec Uc_leader.codec in
  QCheck.Test.make ~name:"Protocol.action codec roundtrip" ~count:500
    (QCheck.make gen_action)
    (fun a -> roundtrip c a = a)

let prop_action_decode_never_crashes =
  let c = Protocol.action_codec Uc_leader.codec in
  QCheck.Test.make ~name:"random bytes never crash the action decoder" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun bytes -> match Codec.decode c bytes with Ok _ | Error _ -> true)

(* ------------------------- frames ------------------------- *)

let test_frame_roundtrip_via_pipe () =
  let read_fd, write_fd = Unix.pipe () in
  let oc = Unix.out_channel_of_descr write_fd in
  let ic = Unix.in_channel_of_descr read_fd in
  let c = Codec.(pair int string) in
  Codec.Frame.to_channel oc c (7, "payload");
  Codec.Frame.to_channel oc c (-3, "");
  Alcotest.(check (pair int string)) "first frame" (7, "payload") (Codec.Frame.from_channel ic c);
  Alcotest.(check (pair int string)) "second frame" (-3, "") (Codec.Frame.from_channel ic c);
  close_out oc;
  (match Codec.Frame.from_channel ic c with
  | exception End_of_file -> ()
  | _ -> Alcotest.fail "expected EOF");
  close_in ic

let test_frame_to_string_matches_channel () =
  (* Frame.to_string is the event-driven send unit; it must be byte-identical
     to what the blocking writer puts on the wire. *)
  let c = Codec.(pair int string) in
  let v = (42, "framed") in
  let buf = Buffer.create 32 in
  Codec.Frame.write buf c v;
  Alcotest.(check string) "same bytes" (Buffer.contents buf) (Codec.Frame.to_string c v)

let test_frame_reader_incremental () =
  let c = Codec.string in
  let r = Codec.Frame.Reader.create c in
  let feed_str r s =
    let b = Bytes.of_string s in
    Codec.Frame.Reader.feed r b (Bytes.length b)
  in
  let f1 = Codec.Frame.to_string c "alpha" and f2 = Codec.Frame.to_string c "" in
  (* Split mid-length-prefix and mid-payload. *)
  let whole = f1 ^ f2 in
  Alcotest.(check (list string)) "nothing on 2 bytes" []
    (feed_str r (String.sub whole 0 2));
  Alcotest.(check int) "pending tracks buffered bytes" 2 (Codec.Frame.Reader.pending r);
  Alcotest.(check (list string)) "nothing mid-payload" []
    (feed_str r (String.sub whole 2 4));
  let rest = String.sub whole 6 (String.length whole - 6) in
  Alcotest.(check (list string)) "both frames complete, in order" [ "alpha"; "" ]
    (feed_str r rest);
  Alcotest.(check int) "drained" 0 (Codec.Frame.Reader.pending r);
  (* Many frames in one feed. *)
  let burst = String.concat "" (List.init 5 (fun i -> Codec.Frame.to_string c (string_of_int i))) in
  Alcotest.(check (list string)) "burst decodes whole"
    [ "0"; "1"; "2"; "3"; "4" ] (feed_str r burst)

let test_frame_reader_rejects_huge_length () =
  let c = Codec.string in
  let r = Codec.Frame.Reader.create c in
  (* A length prefix past the 64 MiB cap must fail as soon as the header is
     complete — the stream is unrecoverable, so the caller tears down. *)
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 0x7fff_ffffl;
  (match Codec.Frame.Reader.feed r b 4 with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "oversized frame accepted")

(* ------------------------- codec TCP cluster ------------------------- *)

let test_dex_over_codec_tcp () =
  let open Dex_condition in
  let open Dex_net in
  let open Dex_runtime in
  let pair = Pair.freq ~n:7 ~t:1 in
  let cfg = D.config ~pair () in
  let extra = D.extra cfg in
  let pids = Pid.all ~n:7 @ List.map fst extra in
  let reactor = Reactor.create () in
  let transport = Transport.Tcp_codec.create ~codec:D.codec ~reactor ~pids () in
  let cluster =
    Cluster.create ~transport ~n:7 ~extra (fun p -> D.instance cfg ~me:p ~proposal:6)
  in
  Cluster.start cluster;
  let ok = Cluster.await ~timeout:20.0 cluster in
  let decisions = Cluster.decisions cluster in
  Cluster.shutdown cluster;
  Reactor.stop reactor;
  Alcotest.(check bool) "all decided" true ok;
  Array.iter
    (function
      | Some d ->
        Alcotest.(check int) "value" 6 d.Cluster.value;
        Alcotest.(check string) "one-step" "one-step" d.Cluster.tag
      | None -> Alcotest.fail "missing decision")
    decisions

(* Fuzz: decoding arbitrary bytes must never raise anything other than
   Decode_error (wrapped as Error by [decode]) — no crashes, no unbounded
   allocation. *)
let prop_decode_never_crashes =
  QCheck.Test.make ~name:"random bytes never crash the decoder" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun bytes ->
      let try_codec : type a. a Codec.t -> bool =
       fun c -> match Codec.decode c bytes with Ok _ | Error _ -> true
      in
      try_codec Codec.int && try_codec Codec.string
      && try_codec Codec.(list (pair int bool))
      && try_codec (Idb.codec Codec.int)
      && try_codec Uc_leader.codec
      && try_codec D.codec && try_codec K.codec && try_codec H.codec)

(* Mutation fuzz: flip one byte of a valid encoding; decode must yield
   either an error or some well-formed value — never an exception escape. *)
let mutate_one_byte (type a) (c : a Codec.t) m pos byte =
  let encoded = Bytes.of_string (Codec.encode c m) in
  if Bytes.length encoded = 0 then true
  else begin
    Bytes.set encoded (pos mod Bytes.length encoded) (Char.chr byte);
    match Codec.decode c (Bytes.to_string encoded) with Ok _ | Error _ -> true
  end

let prop_mutated_encoding_safe =
  QCheck.Test.make ~name:"mutated encodings decode safely" ~count:1000
    QCheck.(pair (QCheck.make gen_leader_msg) (pair small_nat (int_bound 255)))
    (fun (m, (pos, byte)) -> mutate_one_byte Uc_leader.codec m pos byte)

let prop_kuo_chen_mutated_safe =
  QCheck.Test.make ~name:"mutated Kuo-Chen encodings decode safely" ~count:1000
    QCheck.(pair (QCheck.make gen_kuo_chen_msg) (pair small_nat (int_bound 255)))
    (fun (m, (pos, byte)) -> mutate_one_byte K.codec m pos byte)

let prop_hbft_mutated_safe =
  QCheck.Test.make ~name:"mutated hBFT encodings decode safely" ~count:1000
    QCheck.(pair (QCheck.make gen_hbft_msg) (pair small_nat (int_bound 255)))
    (fun (m, (pos, byte)) -> mutate_one_byte H.codec m pos byte)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_int_roundtrip;
      prop_string_roundtrip;
      prop_leader_roundtrip;
      prop_kuo_chen_roundtrip;
      prop_hbft_roundtrip;
      prop_decode_never_crashes;
      prop_mutated_encoding_safe;
      prop_kuo_chen_mutated_safe;
      prop_hbft_mutated_safe;
      prop_action_roundtrip;
      prop_action_decode_never_crashes;
    ]

let () =
  Alcotest.run "dex_codec"
    [
      ( "primitives",
        [
          Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
          Alcotest.test_case "int compactness" `Quick test_int_compact;
          Alcotest.test_case "bool roundtrip" `Quick test_bool_roundtrip;
          Alcotest.test_case "float roundtrip" `Quick test_float_roundtrip;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "option/list/pair" `Quick test_option_list_pair;
          Alcotest.test_case "triple" `Quick test_triple;
        ] );
      ( "hostile-input",
        [
          Alcotest.test_case "truncated" `Quick test_truncated_rejected;
          Alcotest.test_case "trailing" `Quick test_trailing_rejected;
          Alcotest.test_case "bad bool" `Quick test_bad_bool_rejected;
          Alcotest.test_case "bad option tag" `Quick test_bad_option_tag_rejected;
          Alcotest.test_case "huge length" `Quick test_huge_length_rejected;
          Alcotest.test_case "unknown variant tag" `Quick test_unknown_variant_tag_rejected;
          Alcotest.test_case "empty input" `Quick test_empty_input_rejected;
        ] );
      ( "protocol-codecs",
        [
          Alcotest.test_case "idb" `Quick test_idb_codec;
          Alcotest.test_case "bracha" `Quick test_bracha_codec;
          Alcotest.test_case "mmr" `Quick test_mmr_codec;
          Alcotest.test_case "uc-leader" `Quick test_uc_leader_codec;
          Alcotest.test_case "dex(oracle)" `Quick test_dex_codec;
          Alcotest.test_case "dex(multivalued)" `Quick test_dex_mv_codec;
          Alcotest.test_case "bosco" `Quick test_bosco_codec;
          Alcotest.test_case "kuo-chen" `Quick test_kuo_chen_codec;
          Alcotest.test_case "hbft" `Quick test_hbft_codec;
          Alcotest.test_case "actions incl. boundaries" `Quick test_action_codec_boundaries;
        ] );
      ( "frames",
        [
          Alcotest.test_case "pipe roundtrip" `Quick test_frame_roundtrip_via_pipe;
          Alcotest.test_case "to_string = channel bytes" `Quick
            test_frame_to_string_matches_channel;
          Alcotest.test_case "incremental reader" `Quick test_frame_reader_incremental;
          Alcotest.test_case "reader rejects huge length" `Quick
            test_frame_reader_rejects_huge_length;
        ] );
      ( "cluster",
        [ Alcotest.test_case "DEX over codec TCP" `Quick test_dex_over_codec_tcp ] );
      ("properties", props);
    ]
