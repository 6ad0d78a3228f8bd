(* Clocks, order statistics and span-recording probes shared by the
   untraced and traced passes. *)

module Trace = Qkd_obs.Trace

(* Monotonic nanosecond clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = percentile 0.5 xs
let sum xs = Array.fold_left ( +. ) 0.0 xs

(* Runs [slice] (which returns the wall seconds of its timed part)
   until [seconds] of wall time have passed, at least once.  [pause]
   runs [pauses] times between slices, at even intervals, with the
   window's clock stopped. *)
let timed_slices ~seconds ?(pauses = 0) ?(pause = ignore) slice =
  let start = now () and paused = ref 0.0 and taken = ref 0 in
  let acc = ref [] in
  let rec loop () =
    acc := slice () :: !acc;
    let elapsed = now () -. start -. !paused in
    if !taken < pauses && elapsed >= seconds *. float_of_int (!taken + 1) /. float_of_int (pauses + 1)
    then begin
      let t0 = now () in
      pause ();
      incr taken;
      paused := !paused +. (now () -. t0)
    end;
    if elapsed < seconds then loop ()
  in
  loop ();
  (* a window shorter than its slices leaves pauses owed *)
  for _ = !taken + 1 to pauses do
    pause ()
  done;
  Array.of_list (List.rev !acc)

(* Peak major-heap size of this process so far. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* A probe times calls into a layer from outside.  Every call's wall
   duration is kept under its span name; when [tracer] is set the call
   is also recorded as a causal span under the enclosing probe span. *)
type probe = {
  tracer : Trace.tracer option;
  mutable parent : Trace.id;
  durations : (string, float list) Hashtbl.t;  (** newest first *)
}

let probe ?tracer () = { tracer; parent = Trace.null_id; durations = Hashtbl.create 32 }

let span p name f =
  let t0 = now () in
  let saved = p.parent in
  (match p.tracer with
  | Some tracer -> p.parent <- Trace.span_begin ~tracer ~parent:saved ~at:t0 name
  | None -> ());
  let r = f () in
  let t1 = now () in
  (match p.tracer with
  | Some tracer -> Trace.span_end ~tracer ~at:t1 p.parent
  | None -> ());
  p.parent <- saved;
  let prev = Option.value (Hashtbl.find_opt p.durations name) ~default:[] in
  Hashtbl.replace p.durations name ((t1 -. t0) :: prev);
  r

(* Durations of [name]'s calls, oldest first. *)
let durations p name =
  Array.of_list (List.rev (Option.value (Hashtbl.find_opt p.durations name) ~default:[]))

(* Per-name totals and self time (duration minus the part covered by
   child spans), largest self time first. *)
let self_times tracer =
  let spans = Trace.spans ~tracer () in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.parent with
      | Some p ->
          let d = s.Trace.end_s -. s.Trace.start_s in
          Hashtbl.replace child_time p
            (d +. Option.value (Hashtbl.find_opt child_time p) ~default:0.0)
      | None -> ())
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s : Trace.span) ->
      let d = s.Trace.end_s -. s.Trace.start_s in
      let self =
        d -. Option.value (Hashtbl.find_opt child_time s.Trace.id) ~default:0.0
      in
      let n, total, self_total =
        Option.value (Hashtbl.find_opt by_name s.Trace.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.Trace.name (n + 1, total +. d, self_total +. self))
    spans;
  Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total, self) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)
