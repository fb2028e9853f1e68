(* Observability layer (PR 4): histogram bucketing edges, snapshot
   determinism across model-pool sizes, telemetry-off bit-identical
   fuzzing outcomes, JSONL round-trips, and stats.json persistence. *)

open Revizor
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry
module Probe = Revizor_obs.Probe

let check = Alcotest.check
let tc = Alcotest.test_case
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* --- histogram bucketing -------------------------------------------- *)

let test_bucket_edges () =
  check int "bucket of 0" 0 (Metrics.bucket_of 0);
  check int "bucket of negative" 0 (Metrics.bucket_of (-17));
  check int "bucket of 1" 1 (Metrics.bucket_of 1);
  check int "bucket of 2" 2 (Metrics.bucket_of 2);
  check int "bucket of 3" 2 (Metrics.bucket_of 3);
  check int "bucket of 4" 3 (Metrics.bucket_of 4);
  check int "bucket of 1023" 10 (Metrics.bucket_of 1023);
  check int "bucket of 1024" 11 (Metrics.bucket_of 1024);
  check int "bucket of max_int" 62 (Metrics.bucket_of max_int);
  check int "lower of bucket 0" 0 (Metrics.bucket_lower 0);
  check int "lower of bucket 1" 1 (Metrics.bucket_lower 1);
  check int "lower of bucket 62" (1 lsl 61) (Metrics.bucket_lower 62);
  (* Every bucket's lower bound maps back to that bucket, and each
     bucket's last value still belongs to it. *)
  for b = 0 to 62 do
    check int
      (Printf.sprintf "bucket_of (bucket_lower %d)" b)
      b
      (Metrics.bucket_of (Metrics.bucket_lower b));
    if b >= 1 && b < 62 then
      check int
        (Printf.sprintf "last value of bucket %d" b)
        b
        (Metrics.bucket_of ((Metrics.bucket_lower (b + 1)) - 1))
  done

let test_histogram_summary () =
  Metrics.reset ();
  let h = Metrics.histogram "test.obs.hist" in
  List.iter (Metrics.observe h) [ 0; 1; 1; 3; 1024; max_int ];
  let s = Metrics.snapshot () in
  let hs = List.assoc "test.obs.hist" s.Metrics.histograms in
  check int "count" 6 hs.Metrics.h_count;
  check bool "sum overflowed is still a sum" true
    (hs.Metrics.h_sum = 0 + 1 + 1 + 3 + 1024 + max_int);
  check
    (Alcotest.list (Alcotest.pair int int))
    "non-zero buckets, ascending"
    [ (0, 1); (1, 2); (2, 1); (1024, 1); (1 lsl 61, 1) ]
    hs.Metrics.h_buckets

(* --- snapshot determinism ------------------------------------------- *)

(* Time metrics (suffix "ns"), pool scheduling counters (prefix "pool.")
   and gauges are nondeterministic by design; everything else must be a
   pure function of the seed, whatever the executor-pool size. *)
let deterministic_counters (s : Metrics.summary) =
  List.filter
    (fun (name, _) ->
      (not (String.ends_with ~suffix:"ns" name))
      && not (String.starts_with ~prefix:"pool." name))
    s.Metrics.counters

let fuzz_counters ~executor_domains ~seed ~budget =
  Metrics.reset ();
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let cfg = { cfg with Fuzzer.executor_domains } in
  let _ = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases budget) in
  deterministic_counters (Metrics.snapshot ())

let counters_t = Alcotest.(list (pair string int))

let test_snapshot_determinism () =
  let base = fuzz_counters ~executor_domains:1 ~seed:3L ~budget:30 in
  check bool "some deterministic counters" true (List.length base > 10);
  check counters_t "same seed, same counters"
    base
    (fuzz_counters ~executor_domains:1 ~seed:3L ~budget:30);
  (* The pipelined loop records no [loop.other] residual (its stage spans
     overlap across domains), so that pseudo-stage is compared between
     sequential runs only. *)
  let no_loop_other =
    List.filter (fun (name, _) ->
        not (String.starts_with ~prefix:"stage.loop.other." name))
  in
  List.iter
    (fun d ->
      check counters_t
        (Printf.sprintf "executor_domains=%d matches serial" d)
        (no_loop_other base)
        (no_loop_other (fuzz_counters ~executor_domains:d ~seed:3L ~budget:30)))
    [ 2; 4 ]

(* --- telemetry on/off leaves outcomes bit-identical ------------------ *)

let stats_fingerprint (s : Fuzzer.stats) =
  (* elapsed_s is wall-clock, everything else must match exactly. *)
  match Fuzzer.stats_to_json s with
  | Json.Obj fields ->
      Json.to_string
        (Json.Obj (List.remove_assoc "elapsed_s" fields))
  | j -> Json.to_string j

let outcome_fingerprint = function
  | Fuzzer.No_violation -> "no-violation"
  | Fuzzer.Violation v -> Format.asprintf "%a" Violation.pp v

let run_fuzz ~seed ~budget =
  let cfg = Target.fuzzer_config ~seed Contract.ct_seq Target.target1 in
  let outcome, stats = Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases budget) in
  (outcome_fingerprint outcome, stats_fingerprint stats)

let test_telemetry_transparent () =
  List.iter
    (fun seed ->
      Telemetry.disable ();
      let off = run_fuzz ~seed ~budget:15 in
      let buf = Buffer.create 4096 in
      Telemetry.enable_buffer buf;
      let on =
        Fun.protect ~finally:Telemetry.disable (fun () ->
            run_fuzz ~seed ~budget:15)
      in
      check bool
        (Printf.sprintf "seed %Ld: sink captured lines" seed)
        true
        (Buffer.length buf > 0);
      check
        (Alcotest.pair string string)
        (Printf.sprintf "seed %Ld: identical outcome and stats" seed)
        off on)
    [ 1L; 2L; 3L; 4L; 5L ]

(* --- JSONL round-trips ----------------------------------------------- *)

let test_jsonl_roundtrip () =
  let buf = Buffer.create 4096 in
  Telemetry.enable_buffer buf;
  Fun.protect ~finally:Telemetry.disable (fun () ->
      Telemetry.set_context [ ("tc", Json.Int 7) ];
      Telemetry.event "unit.event"
        [
          ("n", Json.Int 42);
          ("label", Json.String "a \"quoted\" value\n");
          ("ratio", Json.Float 0.25);
          ("flag", Json.Bool true);
          ("nothing", Json.Null);
        ];
      let p = Probe.create "unit_probe" in
      Probe.with_span p (fun () -> ignore (Sys.opaque_identity (1 + 1))));
  let lines =
    Buffer.contents buf |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  check bool "at least event + span" true (List.length lines >= 2);
  List.iter
    (fun line ->
      match Telemetry.parse_line line with
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e
      | Ok l ->
          check string "render/parse round-trip" line (Telemetry.render_line l);
          check bool "context merged into every line" true
            (List.mem_assoc "tc" l.Telemetry.l_fields))
    lines;
  (* Kind sanity: the probe span is tagged as such. *)
  let kinds =
    List.filter_map
      (fun l ->
        match Telemetry.parse_line l with
        | Ok p -> Some (p.Telemetry.l_kind, p.Telemetry.l_name)
        | Error _ -> None)
      lines
  in
  check bool "has the event" true (List.mem ("event", "unit.event") kinds);
  check bool "has the span" true (List.mem ("span", "stage.unit_probe") kinds)

let test_json_value_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float 1e18;
      Json.String "nested \\ \"chars\" \t\n";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj
        [ ("b", Json.Int 2); ("a", Json.Int 1); ("c", Json.List [ Json.Null ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %S failed: %s" s e
      | Ok j' -> check string "round-trip" s (Json.to_string j'))
    samples

(* --- stats.json persistence ------------------------------------------ *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "revizor_obs_%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun file -> Sys.remove (Filename.concat dir file))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let test_stats_json_roundtrip () =
  (* Target 5 x CT-SEQ detects quickly (spectre-v1 is in reach). *)
  let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
  Metrics.reset ();
  match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 500) with
  | Fuzzer.No_violation, _ -> Alcotest.fail "expected a violation on target 5"
  | Fuzzer.Violation v, stats ->
      with_tmpdir (fun dir ->
          Results.save_violation ~stats ~dir v;
          check bool "stats.json written" true
            (Sys.file_exists (Filename.concat dir "stats.json"));
          match Results.load_stats (Filename.concat dir "stats.json") with
          | Error e -> Alcotest.failf "load_stats: %s" e
          | Ok saved -> (
              (match saved.Results.stats with
              | None -> Alcotest.fail "stats missing"
              | Some s ->
                  check string "stats round-trip" (stats_fingerprint stats)
                    (stats_fingerprint s));
              match Json.member "counters" saved.Results.metrics with
              | Some (Json.Obj counters) ->
                  check bool "metrics snapshot captured" true
                    (List.mem_assoc "fuzzer.test_cases" counters)
              | _ -> Alcotest.fail "metrics.counters missing"))

(* --- probes record even on exceptions --------------------------------- *)

let test_probe_exception () =
  Metrics.reset ();
  let p = Probe.create "unit_raises" in
  (try Probe.with_span p (fun () -> failwith "boom") with Failure _ -> ());
  let s = Metrics.snapshot () in
  check int "call counted" 1 (List.assoc "stage.unit_raises.calls" s.Metrics.counters);
  check bool "time recorded" true
    (List.assoc "stage.unit_raises.ns" s.Metrics.counters >= 0)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          tc "bucketing edges" `Quick test_bucket_edges;
          tc "histogram summary" `Quick test_histogram_summary;
          tc "probe records on exception" `Quick test_probe_exception;
        ] );
      ( "determinism",
        [
          tc "snapshot deterministic across pool sizes" `Slow
            test_snapshot_determinism;
          tc "telemetry on/off transparent" `Slow test_telemetry_transparent;
        ] );
      ( "serialization",
        [
          tc "JSONL round-trip" `Quick test_jsonl_roundtrip;
          tc "Json value round-trip" `Quick test_json_value_roundtrip;
          tc "stats.json round-trip" `Slow test_stats_json_roundtrip;
        ] );
    ]
