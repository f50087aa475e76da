(* The repository benchmark.  See perfbench/README.md for the workloads
   and metrics; perfbench/run.py builds this program and runs it as

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   It prints one stamp line and, as its last line, the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  With
   --trace 0 a host line between them gives the calibration time and
   the end-to-end figures as measured.

     main.exe --calibrate N

   prints the time of the fixed calibration work on N domains at once
   (see Measure.calibrate). *)

module M = Measure

(* Name and unit of every metric, in the order BENCHMARK.json lists
   them. *)
let end_to_end =
  [ ("setup_s", "s"); ("run_wall_s", "s"); ("peak_heap_mb", "MB"); ("serve_rps", "req/s");
    ("eval_p50_ms", "ms"); ("update_p50_ms", "ms"); ("recovery_s", "s") ]

let per_layer =
  [ ("parser.parse_s", "s"); ("db_snapshot.read_s", "s"); ("db_snapshot.image_bytes", "bytes");
    ("stage.analyze_s", "s"); ("stage_engine.run_s", "s");
    ("stage_engine.minor_words_per_fact", "words"); ("stage_engine.gamma_steps", "count");
    ("stage_engine.iterations", "count"); ("stage_engine.derived", "count");
    ("stage_engine.delta_tuples", "count"); ("rql.pushes", "count"); ("rql.pops", "count");
    ("rql.shadowed", "count"); ("rql.stale", "count"); ("rql.fired_per_pop", "ratio");
    ("relation.flat_fact_share", "ratio"); ("pretty.render_s", "s"); ("pretty.bytes", "bytes");
    ("client.load_p50_ms", "ms"); ("client.run_p50_ms", "ms"); ("client.assert_p50_ms", "ms");
    ("client.retract_p50_ms", "ms"); ("client.query_p50_ms", "ms");
    ("protocol.encode_us", "us"); ("protocol.decode_us", "us");
    ("server.queue_wait_mean_us", "us"); ("server.queue_wait_count", "count");
    ("program_cache.hits", "count"); ("program_cache.misses", "count");
    ("program_cache.compile_ms_total", "ms"); ("session.runs_incremental", "count");
    ("session.runs_full", "count"); ("session.ivm_fallbacks", "count");
    ("session.ivm_hit_ratio", "ratio"); ("session.direct_update_us", "us");
    ("session.direct_eval_us", "us"); ("wal.records", "count");
    ("durable.snapshots_written", "count"); ("durable.data_dir_bytes", "bytes");
    ("server.sessions_recovered", "count"); ("trace.wall_s", "s");
    ("trace.layer_coverage_pct", "%"); ("trace.overhead_pct", "%") ]

let workloads =
  [ ("graph_greedy", `Batch Batch.graph_greedy);
    ("term_greedy", `Batch Batch.term_greedy);
    ("serve_sessions", `Serve) ]

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  (match Sys.argv with
  | [| _; "--calibrate"; n |] ->
    Printf.printf "%.9f\n%!" (M.calibration_sample (int_of_string n));
    exit 0
  | _ -> ());
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads in BENCHMARK.json");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> fail "unexpected argument %s" a)
    usage;
  (* Every number must come from the default configuration. *)
  Array.iter
    (fun kv ->
      if String.starts_with ~prefix:"GBC_" kv || String.starts_with ~prefix:"GBCD_" kv then
        fail "refusing to run with the override %s set" kv)
    (Unix.environment ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None -> fail "unknown workload %S (%s)" !workload usage
  in
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  if not (Sys.file_exists "dune-project" && Sys.file_exists "programs") then
    fail "run from the root of the repository";
  Printf.printf
    "{\"stamp\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \
     \"recommended_domain_count\": %d, \"ocaml_version\": %S, \"word_size\": %d}}\n%!"
    !workload seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size;
  let dir = Filename.concat M.work_root (string_of_int (Unix.getpid ())) in
  M.mkdir_p dir;
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        M.rm_rf dir;
        try Unix.rmdir M.work_root with Unix.Unix_error _ -> ())
      (fun () ->
        let trace = !trace = 1 in
        match run with
        | `Batch w -> Batch.run w ~seed ~seconds:!seconds ~trace ~dir
        | `Serve -> Serve.run ~seed ~seconds:!seconds ~trace ~dir)
  in
  (* End-to-end figures are reported at the reference host speed; the
     line before the result keeps them as measured. *)
  let measured = outcome.M.metrics in
  let reported =
    if !trace = 1 then measured
    else begin
      Printf.printf "{\"host\": {\"calibration_median_s\": %.6g, \"reference_calibration_s\": %g, \"raw\": {%s}}}\n%!"
        (M.median outcome.M.calibrations) M.reference_calibration_s
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %.6g" k v) measured));
      M.at_reference_speed outcome.M.calibrations measured
    end
  in
  let wanted = if !trace = 1 then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name reported with
    | Some v -> v
    | None when !trace = 1 -> 0.0 (* a layer this workload does not call *)
    | None -> fail "internal: %s not measured" name
  in
  let metrics =
    List.map
      (fun (name, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name) unit)
      wanted
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (outcome.M.wrong = 0) outcome.M.attempted outcome.M.failed
    (String.concat ", " metrics)
