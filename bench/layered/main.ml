(* Layered benchmark: five workloads from photon pulse to ESP byte.

     main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
              [--setup-only]

   With a workload, runs it in this process and prints one line per
   metric ("workload metric value unit (n=samples)") and, last, a JSON
   summary.  [--trace 0] (the default) reports the end-to-end metrics
   of the untraced pass; [--trace 1] runs the traced layer pass
   instead and reports the per-layer metrics.  [--setup-only] prints
   the wall seconds of one set-up.  Without a workload, runs every
   workload, each in its own process.  Exits non-zero when an output
   check fails. *)

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  setup_only : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
     [--setup-only]";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest when List.mem_assoc w Workloads.all ->
        go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some seed -> go { a with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some seconds when seconds >= 0.0 -> go { a with seconds } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | _ -> usage ()
  in
  (* 4 s windows keep a run of all five workloads within a minute. *)
  go
    { workload = None; seed = 1; seconds = 4.0; trace = false; smoke = false; setup_only = false }
    argv

type metric = { name : string; value : float; unit_ : string; samples : int }

let report ~workload ~correct ~attempted ~failed ~info metrics checks =
  List.iter
    (fun (name, ok) ->
      Printf.printf "%s check %s: %s\n" workload name (if ok then "ok" else "FAILED"))
    checks;
  List.iter (fun (name, v, u) -> Printf.printf "%s %s %.6g %s\n" workload name v u) info;
  List.iter
    (fun m -> Printf.printf "%s %s %.6g %s (n=%d)\n" workload m.name m.value m.unit_ m.samples)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

(* Gated wall-clock figures are 10th percentiles.  On a shared 2-core
   host, episodes of contention slow everything about 1.6x for 2 to 10
   s at a time and cover a third of the time on average; the share a
   run spends in them moves its medians by up to 1.6x from run to run,
   but a run rarely spends 90% of its samples in one.  Medians and
   tails are printed alongside, ungated. *)
let end_to_end (o : Workloads.outcome) =
  let slices = o.Workloads.slices in
  let n = Array.length slices in
  let p10 = Meter.percentile 0.1 slices in
  [
    { name = "setup_s"; value = Meter.percentile 0.1 o.Workloads.setup_s; unit_ = "s";
      samples = Array.length o.Workloads.setup_s };
    { name = "slice_p10_ms"; value = 1e3 *. p10; unit_ = "ms"; samples = n };
    { name = "goodput_kbps"; value = o.Workloads.useful_bits /. float_of_int n /. p10 /. 1e3;
      unit_ = "kbit/s"; samples = n };
    { name = "peak_heap_mb"; value = o.Workloads.peak_heap_mb; unit_ = "MB"; samples = 1 };
  ]

let ungated (o : Workloads.outcome) =
  ("setup_p50_s", Meter.median o.Workloads.setup_s, "s")
  :: List.map
       (fun p ->
         ( Printf.sprintf "slice_p%g_ms" (100.0 *. p),
           1e3 *. Meter.percentile p o.Workloads.slices,
           "ms" ))
       [ 0.5; 0.9; 0.99 ]

let run_workload a name =
  let run = List.assoc name Workloads.all in
  Qkd_obs.Trace.set_clock Meter.now;
  let p =
    { Workloads.name; seed = a.seed; seconds = a.seconds; smoke = a.smoke;
      setup_only = a.setup_only }
  in
  let o = run p in
  let metrics = end_to_end o in
  (* a smoke run may end before its tunnel carries a packet *)
  let positive m = a.smoke || m.value > 0.0 in
  let finite = List.for_all (fun m -> Float.is_finite m.value && positive m) metrics in
  let checks = o.Workloads.checks @ [ ("metrics finite and positive", finite) ] in
  let correct = List.for_all snd checks in
  report ~workload:name ~correct ~attempted:o.Workloads.attempted ~failed:o.Workloads.failed
    ~info:(ungated o @ o.Workloads.info) metrics checks;
  if not correct then exit 1

let host_facts () =
  let nproc =
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let n = try input_line ic with End_of_file -> "?" in
    ignore (Unix.close_process_in ic);
    n
  in
  Printf.printf "host nproc %s\nhost recommended_domain_count %d\nhost ocaml %s\n" nproc
    (Domain.recommended_domain_count ()) Sys.ocaml_version

(* Spans are written to the build directory, which is never committed. *)
let trace_file workload =
  let dir = Filename.concat "_build" "layered-trace" in
  if not (Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (workload ^ ".json")

let run_traced a name =
  Qkd_obs.Trace.set_clock Meter.now;
  host_facts ();
  let r = Layers.run ~workload:name ~seed:a.seed ~smoke:a.smoke in
  let chrome = Qkd_obs.Trace.export_chrome ~tracer:r.Layers.tracer () in
  if a.smoke then Printf.printf "%s trace %d bytes of chrome JSON\n" name (String.length chrome)
  else begin
    let file = trace_file name in
    Out_channel.with_open_bin file (fun oc -> output_string oc chrome);
    Printf.printf "%s trace written to %s\n" name file
  end;
  Printf.printf "%s self %-34s %7s %11s %11s %6s\n" name "span" "calls" "total_ms" "self_ms"
    "self%";
  let grand = List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 r.Layers.self_times in
  List.iter
    (fun (span, calls, total, self) ->
      Printf.printf "%s self %-34s %7d %11.3f %11.3f %6.2f\n" name span calls (1e3 *. total)
        (1e3 *. self) (100.0 *. self /. grand))
    r.Layers.self_times;
  let metrics =
    List.map (fun (name, value, unit_) -> { name; value; unit_; samples = 1 }) r.Layers.metrics
  in
  let correct = List.for_all snd r.Layers.checks in
  let spans = List.length (Qkd_obs.Trace.spans ~tracer:r.Layers.tracer ()) in
  report ~workload:name ~correct ~attempted:spans ~failed:0 ~info:[] metrics r.Layers.checks;
  if not correct then exit 1

(* Every workload in a child process of its own, so no workload
   inherits another's heap, caches or global registries. *)
let run_all argv =
  let failures =
    List.filter
      (fun (name, _) ->
        let args = Array.of_list ((Sys.executable_name :: argv) @ [ "--workload"; name ]) in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> false | _ -> true)
      Workloads.all
  in
  if failures <> [] then exit 1

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let a = parse argv in
  match a.workload with
  | Some name -> if a.trace then run_traced a name else run_workload a name
  | None ->
      flush stdout;
      run_all argv
