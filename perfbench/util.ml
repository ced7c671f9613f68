(* Small shared helpers: clocks, sample buffers, quantiles, process facts. *)

let now = Unix.gettimeofday

(* A growable float sample buffer; spans and latencies land here so a run
   allocates per doubling, not per sample. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n

  let clear b = b.n <- 0

  let to_array b = Array.sub b.a 0 b.n

  let sorted b =
    let a = to_array b in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank quantile of an ascending array; 0 when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile a 0.5

(* The mean of the middle three fifths of [l]: it moves smoothly where a
   median jumps between two clusters of values, and like a median it
   ignores the highest and the lowest fifth (a stalled round or job). *)
let trimmed_mean l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  let k = n / 5 in
  let mid = Array.sub a k (n - (2 * k)) in
  Array.fold_left ( +. ) 0.0 mid /. float_of_int (max 1 (Array.length mid))

(* The tail percentile a sample of [n] supports: p99 when at least ten
   samples lie beyond it, otherwise the highest quantile that still leaves
   ten samples above (never below the median). *)
let tail_q n =
  if n <= 0 then 0.5 else Float.min 0.99 (Float.max 0.5 (1.0 -. (10.0 /. float_of_int n)))

(* The tail is taken per chunk of consecutive samples (up to five chunks
   of at least 500, at the highest percentile a chunk supports) and the
   median chunk is reported, so one stall moves one chunk, not the result. *)
let chunked_tail lat =
  let n = Array.length lat in
  let k = max 1 (min 5 (n / 500)) in
  let size = n / k in
  let q = tail_q size in
  let tails =
    List.init k (fun i ->
        let c = Array.sub lat (i * size) (if i = k - 1 then n - (i * size) else size) in
        Array.sort Float.compare c;
        quantile c q)
  in
  (median_of_list tails, q)

(* Median over [reps] blocks of [iters] calls of [f], per call, in units of
   1/[scale] seconds (1e9 for ns). *)
let per_op ?(reps = 7) ~iters ~scale f =
  median_of_list
    (List.init reps (fun _ ->
         let t0 = now () in
         for _ = 1 to iters do
           f ()
         done;
         (now () -. t0) *. scale /. float_of_int iters))

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = try scan () with End_of_file -> 0.0 in
    close_in ic;
    v
  with Sys_error _ -> 0.0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let div a b = if b = 0.0 then 0.0 else a /. b

let idiv a b = div (float_of_int a) (float_of_int b)
