(* Command-line interface to the Revizor reproduction: fuzz targets
   against contracts, reproduce the paper's experiments, inspect gadgets
   and the instruction catalog, and minimize counterexamples. *)

open Revizor
open Cmdliner
module Metrics = Revizor_obs.Metrics
module Telemetry = Revizor_obs.Telemetry
module Json = Revizor_obs.Json

(* --- shared argument parsers --------------------------------------- *)

let contract_conv =
  let parse s =
    match Contract.of_name s with Ok c -> Ok c | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Contract.pp)

let target_conv =
  let parse s =
    let s' = if String.length s <= 2 then "target " ^ s else s in
    match Target.find s' with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown target %S (use 1..8)" s))
  in
  Arg.conv (parse, Target.pp)

let contract_arg =
  Arg.(
    value
    & opt contract_conv Contract.ct_seq
    & info [ "c"; "contract" ] ~docv:"CONTRACT"
        ~doc:"Contract to test against (e.g. CT-SEQ, MEM-COND, ARCH-SEQ).")

let target_arg =
  Arg.(
    value
    & opt target_conv Target.target5
    & info [ "t"; "target" ] ~docv:"TARGET" ~doc:"Table 2 target (1..8).")

let seed_arg =
  Arg.(value & opt int64 1L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let budget_arg =
  Arg.(
    value & opt int 1000
    & info [ "n"; "test-cases" ] ~docv:"N" ~doc:"Test-case budget.")

let inputs_arg =
  Arg.(
    value & opt int 50
    & info [ "i"; "inputs" ] ~docv:"N" ~doc:"Inputs per test case.")

(* --- fuzz ----------------------------------------------------------- *)

(* The live dashboard and the closing stats line read the process-wide
   metrics registry rather than the per-campaign [Fuzzer.stats], which
   the campaign only hands back when it ends. *)

let counter_of snap name =
  Option.value (List.assoc_opt name snap.Metrics.counters) ~default:0

let gauge_of snap name =
  Option.value (List.assoc_opt name snap.Metrics.gauges) ~default:0.

let stage_share_line snap ~elapsed =
  let wall_ns = elapsed *. 1e9 in
  let stages = Metrics.stage_breakdown snap in
  String.concat "  "
    (List.filter_map
       (fun (st : Metrics.stage) ->
         if st.Metrics.st_total_ns = 0 || wall_ns <= 0. then None
         else
           Some
             (Printf.sprintf "%s %.1f%%" st.Metrics.st_name
                (100. *. float_of_int st.Metrics.st_total_ns /. wall_ns)))
       stages)

let live_lines_printed = ref 0

(* The live dashboard runs on the terminal's alternate screen with the
   cursor hidden. Every exit path — normal finish, SIGINT/SIGTERM
   graceful shutdown, uncaught exception — must restore the main screen
   and the cursor, or the user's shell is left garbled; [exit_live] is
   idempotent and doubles as an [at_exit] guard. *)
let live_active = ref false

let enter_live () =
  live_active := true;
  live_lines_printed := 0;
  print_string "\027[?1049h\027[?25l";
  flush stdout

let exit_live () =
  if !live_active then begin
    live_active := false;
    live_lines_printed := 0;
    print_string "\027[?1049l\027[?25h";
    flush stdout
  end

let () = at_exit exit_live

(* Graceful shutdown: the first SIGINT/SIGTERM requests a cooperative
   stop — the fuzz loop finishes the current test case, writes a final
   checkpoint, flushes telemetry and restores the terminal. A second
   SIGINT force-exits (the [at_exit] guard still fixes the screen). *)
let stop_requested = Atomic.make false

let install_signal_handlers () =
  let handle _ =
    if Atomic.exchange stop_requested true then exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)

let render_live ~started () =
  let snap = Metrics.snapshot () in
  let c = counter_of snap and g = gauge_of snap in
  let elapsed = Unix.gettimeofday () -. started in
  let tcs = c "fuzzer.test_cases" in
  let rate = if elapsed > 0. then float_of_int tcs /. elapsed else 0. in
  let inputs = c "fuzzer.inputs_tested" in
  let eff_pct =
    if inputs = 0 then 0.
    else 100. *. float_of_int (c "fuzzer.effective_inputs") /. float_of_int inputs
  in
  let lines =
    [
      Printf.sprintf "elapsed %6.1fs   test cases %7d  (%.1f tc/s)   inputs %d"
        elapsed tcs rate inputs;
      Printf.sprintf
        "effective inputs %.1f%%   ineffective tcs %d   faulted %d"
        eff_pct
        (c "fuzzer.ineffective_test_cases")
        (c "fuzzer.faulted_test_cases");
      Printf.sprintf
        "candidates %d   dismissed: swap %d, nesting %d   coverage combos %.0f"
        (c "fuzzer.candidates")
        (c "fuzzer.dismissed_by_swap")
        (c "fuzzer.dismissed_by_nesting")
        (g "coverage.combinations");
      Printf.sprintf
        "generator: insts %.0f  blocks %.0f  mem %.0f  inputs/tc %.0f   rounds %d (growths %d)"
        (g "gen.n_insts") (g "gen.n_blocks") (g "gen.max_mem_accesses")
        (g "gen.n_inputs") (c "fuzzer.rounds") (c "fuzzer.growths");
      "stages: " ^ stage_share_line snap ~elapsed;
    ]
  in
  if !live_lines_printed > 0 then Printf.printf "\027[%dA" !live_lines_printed;
  List.iter (fun l -> Printf.printf "\027[2K%s\n" l) lines;
  live_lines_printed := List.length lines;
  flush stdout

(* Satellite of the telemetry PR: the old [mod 100 = 0] progress line
   skipped the final state entirely; every run now ends with a closing
   stats line computed from the metrics snapshot. *)
let closing_line ~started ~outcome =
  let snap = Metrics.snapshot () in
  let c = counter_of snap in
  let elapsed = Unix.gettimeofday () -. started in
  let tcs = c "fuzzer.test_cases" in
  Printf.printf
    "done: %d test cases in %.1fs (%.1f tc/s) | inputs %d (effective %d) | \
     candidates %d (swap-dismissed %d, nesting-dismissed %d, faulted %d) | %s\n%!"
    tcs elapsed
    (if elapsed > 0. then float_of_int tcs /. elapsed else 0.)
    (c "fuzzer.inputs_tested")
    (c "fuzzer.effective_inputs")
    (c "fuzzer.candidates")
    (c "fuzzer.dismissed_by_swap")
    (c "fuzzer.dismissed_by_nesting")
    (c "fuzzer.faulted_test_cases")
    (match outcome with
    | Fuzzer.Violation _ -> "VIOLATION"
    | Fuzzer.No_violation -> "no violation")

let write_metrics_json path ~elapsed ~(stats : Fuzzer.stats option) =
  let snap = Metrics.snapshot () in
  let stages = Metrics.stage_breakdown snap in
  let wall_ns = elapsed *. 1e9 in
  let accounted =
    List.fold_left (fun acc st -> acc + st.Metrics.st_total_ns) 0 stages
  in
  let stage_json (st : Metrics.stage) =
    ( st.Metrics.st_name,
      Json.Obj
        [
          ("calls", Json.Int st.Metrics.st_calls);
          ("total_ns", Json.Int st.Metrics.st_total_ns);
          ( "share",
            Json.Float
              (if wall_ns > 0. then float_of_int st.Metrics.st_total_ns /. wall_ns
               else 0.) );
        ] )
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "revizor.metrics.v1");
        ("elapsed_s", Json.Float elapsed);
        ( "stats",
          match stats with Some s -> Fuzzer.stats_to_json s | None -> Json.Null
        );
        ("stages", Json.Obj (List.map stage_json stages));
        ( "accounted_share",
          Json.Float (if wall_ns > 0. then float_of_int accounted /. wall_ns else 0.)
        );
        ("metrics", Metrics.to_json snap);
      ]
  in
  Revizor_obs.Atomic_file.write path (Json.to_string_pretty doc ^ "\n")

let do_fuzz contract target seed budget inputs minimize save_dir
    executor_domains pipeline_depth metrics_out trace_out progress checkpoint
    checkpoint_every resume watchdog_steps watchdog_ms fault_inject fault_seed
    monitor_sock heartbeat_every no_ucoverage stats_out =
  (* Flag validation up front, before anything touches the terminal or
     the filesystem. *)
  let usage_error msg =
    Printf.eprintf "revizor: %s\n" msg;
    Some 2
  in
  let validation =
    if resume && checkpoint = None then
      usage_error "--resume requires --checkpoint FILE"
    else
      match fault_inject with
      | None -> None
      | Some spec -> (
          match Revizor_obs.Faultpoint.parse_spec spec with
          | Ok points ->
              Revizor_obs.Faultpoint.enable ~seed:fault_seed points;
              None
          | Error e -> usage_error (Printf.sprintf "--fault-inject: %s" e))
  in
  match validation with
  | Some rc -> rc
  | None ->
  Ucoverage.set_enabled (not no_ucoverage);
  (* Caller-owned atlas so it can be saved after the campaign. *)
  let ucov = if no_ucoverage then None else Some (Ucoverage.create ()) in
  (match trace_out with Some path -> Telemetry.enable_file path | None -> ());
  let monitor =
    Option.map
      (fun path ->
        let m = Revizor_obs.Monitor.create ~path in
        if progress <> `Quiet then
          Printf.printf "[monitor endpoint on %s]\n%!" path;
        m)
      monitor_sock
  in
  install_signal_handlers ();
  if progress <> `Quiet then
    Printf.printf "Testing %s against %s (seed %Ld, budget %d test cases)\n%!"
      (Format.asprintf "%a" Target.pp target)
      (Contract.name contract) seed budget;
  let cfg = Target.fuzzer_config ~seed ~n_inputs:inputs contract target in
  let cfg =
    {
      cfg with
      Fuzzer.executor_domains = max 1 executor_domains;
      pipeline_depth = max 0 pipeline_depth;
      Fuzzer.watchdog =
        {
          Watchdog.max_model_steps =
            Option.value watchdog_steps
              ~default:Watchdog.default.Watchdog.max_model_steps;
          max_input_millis = watchdog_ms;
        };
    }
  in
  let started = Unix.gettimeofday () in
  let last_render = ref 0. in
  let on_progress =
    match progress with
    | `Quiet -> fun _ -> ()
    | `Line ->
        fun (s : Fuzzer.stats) ->
          if s.Fuzzer.test_cases mod 100 = 0 then
            Printf.printf "  ... %d test cases, %d inputs\n%!" s.Fuzzer.test_cases
              s.Fuzzer.inputs_tested
    | `Live ->
        (* Time-based refresh instead of the mod-100 counter: a slow
           configuration still updates twice a second, a fast one does
           not spam the terminal. *)
        fun (_ : Fuzzer.stats) ->
          let now = Unix.gettimeofday () in
          if now -. !last_render >= 0.5 then begin
            last_render := now;
            render_live ~started ()
          end
  in
  let resume_snapshot =
    match (resume, checkpoint) with
    | true, Some path -> (
        match Campaign.load ~path cfg with
        | Ok s ->
            if progress <> `Quiet then
              Printf.printf "Resuming from %s (%d test cases done)\n%!" path
                s.Fuzzer.sn_stats.Fuzzer.test_cases;
            Some s
        | Error e ->
            Printf.eprintf "revizor: %s\n" e;
            exit 2)
    | _ -> None
  in
  let on_checkpoint =
    Option.map (fun path snap -> Campaign.save ~path cfg snap) checkpoint
  in
  let run () =
    if progress = `Live then enter_live ();
    Fuzzer.fuzz ~on_progress
      ~should_stop:(fun () -> Atomic.get stop_requested)
      ?resume:resume_snapshot ~checkpoint_every ?on_checkpoint ?monitor
      ~heartbeat_every ?ucoverage:ucov cfg
      ~budget:(Fuzzer.Test_cases budget)
  in
  let finish outcome (stats : Fuzzer.stats) =
    (* Leave the alternate screen before printing anything meant to
       persist in the user's scrollback. *)
    exit_live ();
    closing_line ~started ~outcome;
    if Atomic.get stop_requested then
      Printf.printf "interrupted after %d test cases%s\n%!"
        stats.Fuzzer.test_cases
        (match checkpoint with
        | Some path -> Printf.sprintf " — checkpoint written to %s" path
        | None -> "");
    (match metrics_out with
    | Some path ->
        write_metrics_json path
          ~elapsed:(Unix.gettimeofday () -. started)
          ~stats:(Some stats);
        if progress <> `Quiet then Printf.printf "[metrics written to %s]\n%!" path
    | None -> ());
    (* The stats/atlas artifact for campaigns that never hit a violation
       (a compliant target leaves no --save directory): same
       revizor.stats.v1 document [revizor coverage] reads. *)
    (match stats_out with
    | Some path ->
        Results.save_stats ~stats ?ucoverage:ucov ~path ();
        if progress <> `Quiet then Printf.printf "[stats written to %s]\n%!" path
    | None -> ());
    (* Flush-then-disable so the JSONL sink ends on a complete line even
       when the shutdown was signal-initiated. *)
    Telemetry.flush ();
    Telemetry.disable ();
    (match monitor with
    | Some m ->
        (* Brief post-campaign drain: a client that connected during the
           final test case still gets its answer before the endpoint is
           torn down, and an idle endpoint costs one poll, not the full
           timeout. *)
        Revizor_obs.Monitor.drain ~timeout:0.2 m;
        Revizor_obs.Monitor.close m
    | None -> ())
  in
  match run () with
  | Fuzzer.No_violation, stats ->
      finish Fuzzer.No_violation stats;
      Format.printf "No violation detected.@.%a@." Fuzzer.pp_stats stats;
      0
  | Fuzzer.Violation v, stats ->
      finish (Fuzzer.Violation v) stats;
      Format.printf "%a@.@.%a@." Violation.pp v Fuzzer.pp_stats stats;
      (match save_dir with
      | Some dir ->
          Results.save_violation ~stats ?ucoverage:ucov ~dir v;
          (* The flight recorder runs after the campaign on a dedicated
             CPU/executor, so enabling it cannot perturb the fuzzing
             outcome above. *)
          Forensics.save ~dir (Forensics.capture ?ucoverage:ucov cfg v);
          Format.printf
            "@.Saved to \
             %s/{violation.asm,inputs.txt,report.txt,stats.json,forensics.json}@."
            dir
      | None -> ());
      if minimize then begin
        let cpu = Revizor_uarch.Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        let m = Postprocessor.minimize cfg executor v in
        Format.printf "@.Minimized test case (%d inputs):@.%a@."
          (List.length m.Postprocessor.inputs)
          Revizor_isa.Program.pp m.Postprocessor.program;
        Format.printf "@.With localizing fences:@.%a@." Revizor_isa.Program.pp
          m.Postprocessor.fenced
      end;
      1

let fuzz_cmd =
  let minimize =
    Arg.(value & flag & info [ "m"; "minimize" ] ~doc:"Minimize the violation.")
  in
  let save_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"Save the counterexample (asm + input seeds + report) to DIR.")
  in
  let executor_domains =
    Arg.(
      value & opt int 1
      & info [ "executor-domains" ] ~docv:"N"
          ~doc:
            "Size of the whole-pipeline domain pool: generate+compile stay \
             on the main domain while N domains run the \
             materialize/model/execute/analyze stages of different test \
             cases concurrently. Results, statistics and checkpoints are \
             bit-identical for every N (noise and fault-injection draws \
             are keyed per test case), so checkpoints written under any \
             value resume under any other. To run independent seeds in \
             parallel, use $(b,revizor fleet run).")
  in
  let pipeline_depth =
    Arg.(
      value & opt int 1
      & info [ "pipeline-depth" ] ~docv:"N"
          ~doc:
            "Extra test cases generated ahead of the executor pool (with \
             $(b,--executor-domains) > 1): overlaps test-case N+1's \
             generate+compile with test-case N's execution. 0 disables \
             the overlap. No effect on results.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON metrics summary (per-stage time breakdown, \
             counters, histograms) to FILE on exit.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Stream JSONL telemetry events (per-stage spans, coverage and \
             growth events) to FILE during the run.")
  in
  let progress =
    Arg.(
      value
      & opt (enum [ ("quiet", `Quiet); ("line", `Line); ("live", `Live) ]) `Line
      & info [ "progress" ] ~docv:"MODE"
          ~doc:
            "Progress reporting: $(b,quiet) (closing stats line only), \
             $(b,line) (a line every 100 test cases), or $(b,live) (an \
             in-place dashboard refreshed twice a second).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write campaign checkpoints (PRNG state, coverage, statistics) \
             to FILE, atomically, every $(b,--checkpoint-every) test cases \
             and at shutdown.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 50
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Test cases between periodic checkpoints (with --checkpoint).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from $(b,--checkpoint) FILE. The resumed campaign is \
             bit-identical to the uninterrupted one; a checkpoint taken \
             under a different configuration is rejected.")
  in
  let watchdog_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "watchdog-steps" ] ~docv:"N"
          ~doc:
            "Model-stage step budget per contract trace (including nested \
             speculative exploration); pathological test cases are skipped \
             and counted. Default 50M.")
  in
  let watchdog_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "watchdog-ms" ] ~docv:"MS"
          ~doc:
            "Opt-in wall-clock budget per contract trace; trades \
             bit-reproducibility for liveness on hostile hosts.")
  in
  let fault_inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-inject" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic fault injection: comma-separated \
             $(i,name:rate) with optional $(i,@after) and $(i,#max), e.g. \
             $(b,model.ctrace:0.05,writer.io:1.0@10#2). Off by default.")
  in
  let fault_seed =
    Arg.(
      value & opt int64 42L
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed for the fault-injection schedule (with --fault-inject).")
  in
  let monitor_sock =
    Arg.(
      value
      & opt (some string) None
      & info [ "monitor" ] ~docv:"SOCK"
          ~doc:
            "Serve live campaign state on a Unix-domain socket at SOCK: \
             line-delimited $(b,status)/$(b,metrics)/$(b,health) JSON \
             requests plus a one-shot $(b,prom) Prometheus text \
             exposition (query with $(b,revizor monitor)). Served \
             non-blockingly at test-case boundaries; fuzzing results are \
             bit-identical with or without it.")
  in
  let heartbeat_every =
    Arg.(
      value & opt int 50
      & info [ "heartbeat-every" ] ~docv:"N"
          ~doc:
            "Emit a fuzz.heartbeat telemetry event (round, test cases, \
             throughput, coverage size) every N test cases (with \
             $(b,--trace-out); 0 disables).")
  in
  let no_ucoverage =
    Arg.(
      value & flag
      & info [ "no-ucoverage" ]
          ~doc:
            "Disable the microarchitectural coverage atlas (event-feature \
             coverage harvested from the executor's measurements). Fuzzing \
             outcomes are bit-identical either way; the switch exists for \
             overhead measurements and differential tests.")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:
            "Write the revizor.stats.v1 document (statistics, metrics and \
             the coverage atlas) to FILE at campaign end — also for \
             compliant campaigns, which never produce a --save directory. \
             Read by $(b,revizor coverage).")
  in
  Cmd.v (Cmd.info "fuzz" ~doc:"Fuzz a target against a contract (Fig. 2 pipeline).")
    Term.(
      const do_fuzz $ contract_arg $ target_arg $ seed_arg $ budget_arg
      $ inputs_arg $ minimize $ save_dir $ executor_domains
      $ pipeline_depth $ metrics_out $ trace_out $ progress $ checkpoint
      $ checkpoint_every $ resume $ watchdog_steps $ watchdog_ms
      $ fault_inject $ fault_seed $ monitor_sock $ heartbeat_every
      $ no_ucoverage $ stats_out)

(* --- check: re-verify a saved counterexample -------------------------- *)

let do_check dir contract target =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Printf.eprintf "%s\n" e; 2 in
  let* program = Results.load_program (Filename.concat dir "violation.asm") in
  let* inputs = Results.load_inputs (Filename.concat dir "inputs.txt") in
  let cfg = Target.fuzzer_config contract target in
  let cpu = Revizor_uarch.Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  match Fuzzer.check_test_case cfg executor program inputs with
  | Ok (Some v) ->
      Format.printf "still a violation: %s@." (Violation.summary v);
      1
  | Ok None ->
      Format.printf "no violation with this target/contract@.";
      0
  | Error e ->
      Printf.eprintf "test case faulted: %s\n" e;
      2

let check_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Directory produced by fuzz --save.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Re-verify a saved counterexample directory.")
    Term.(const do_check $ dir $ contract_arg $ target_arg)

(* --- gadget ---------------------------------------------------------- *)

let do_gadget name list_them contract target seed =
  if list_them then begin
    List.iter
      (fun (g : Gadgets.t) ->
        Printf.printf "%-22s %-10s %s\n" g.Gadgets.name g.Gadgets.reference
          g.Gadgets.description)
      Gadgets.all;
    0
  end
  else
    match Gadgets.find name with
    | None ->
        Printf.eprintf "unknown gadget %S (try --list)\n" name;
        2
    | Some g -> (
        Format.printf "%s (%s)@.%s@.@.%a@.@." g.Gadgets.name g.Gadgets.reference
          g.Gadgets.description Revizor_isa.Program.pp g.Gadgets.program;
        let cfg = Target.fuzzer_config ~seed contract target in
        let cpu = Revizor_uarch.Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        let prng = Prng.create ~seed in
        let inputs = Input.generate_many prng ~entropy:2 ~n:50 in
        match Fuzzer.check_test_case cfg executor g.Gadgets.program inputs with
        | Ok (Some v) ->
            Format.printf "%s vs %s: VIOLATION %s@."
              (Format.asprintf "%a" Target.pp target)
              (Contract.name contract) (Violation.summary v);
            1
        | Ok None ->
            Format.printf "%s vs %s: no violation@."
              (Format.asprintf "%a" Target.pp target)
              (Contract.name contract);
            0
        | Error e ->
            Printf.eprintf "gadget faulted: %s\n" e;
            2)

let gadget_cmd =
  let gadget_name =
    Arg.(
      value & pos 0 string "spectre-v1"
      & info [] ~docv:"NAME" ~doc:"Gadget name (see --list).")
  in
  let list_them = Arg.(value & flag & info [ "list" ] ~doc:"List gadgets.") in
  Cmd.v
    (Cmd.info "gadget" ~doc:"Check a hand-written gadget against a contract.")
    Term.(
      const do_gadget $ gadget_name $ list_them $ contract_arg $ target_arg
      $ seed_arg)

(* --- reproduce -------------------------------------------------------- *)

let do_reproduce what budget runs seed =
  let section title body =
    Printf.printf "\n=== %s ===\n%s\n%!" title body
  in
  let all = what = "all" in
  if all || what = "table3" then
    section "Table 3: contract violations per target"
      (Report.table3 (Experiments.table3 ~budget ~seed ()));
  if all || what = "table4" then
    section "Table 4: detection time"
      (Report.table4 ~runs (Experiments.table4 ~runs ~seed ()));
  if all || what = "table5" then
    section "Table 5: inputs to violation on hand-written gadgets"
      (Report.table5 (Experiments.table5 ~runs:(max runs 20) ~seed ()));
  if all || what = "store-eviction" then
    section "Section 6.4: speculative store eviction"
      (Report.store_eviction (Experiments.store_eviction_check ~seed ()));
  if all || what = "sensitivity" then
    section "Section 6.6: contract sensitivity (STT)"
      (Report.sensitivity (Experiments.contract_sensitivity ~seed ()));
  if all || what = "throughput" then
    section "Appendix A.5.3: fuzzing throughput"
      (Report.throughput (Experiments.throughput ~seed ()));
  if all || what = "ports" then
    section "Extension: port-contention channel"
      (String.concat "\n"
         (List.map
            (fun (g, channel, violated) ->
              Printf.sprintf "%-18s via %-16s %s" g channel
                (if violated then "VIOLATION" else "compliant"))
            (Experiments.port_channel_demo ~seed ())));
  if all || what = "ablations" then begin
    section "Ablation: priming" (Report.ablation (Experiments.ablation_priming ~seed ()));
    section "Ablation: input entropy"
      (Report.entropy_sweep (Experiments.ablation_entropy ~seed ()));
    section "Ablation: noise filtering"
      (Report.ablation (Experiments.ablation_noise_filtering ~seed ()));
    section "Ablation: trace equivalence"
      (Report.ablation (Experiments.ablation_equivalence ~seed ()));
    section "Ablation: swap check"
      (Report.ablation (Experiments.ablation_swap_check ~seed ()));
    section "Ablation: coverage feedback"
      (Report.ablation (Experiments.ablation_feedback ~seed ()))
  end;
  0

let reproduce_cmd =
  let what =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "One of: table3, table4, table5, store-eviction, sensitivity, \
             throughput, ports, ablations, all.")
  in
  let budget =
    Arg.(
      value & opt int 400
      & info [ "budget" ] ~docv:"N" ~doc:"Test-case budget per Table 3 cell.")
  in
  let runs =
    Arg.(
      value & opt int 10
      & info [ "runs" ] ~docv:"N" ~doc:"Repetitions for Tables 4 and 5.")
  in
  Cmd.v
    (Cmd.info "reproduce" ~doc:"Re-run the paper's experiments and print the tables.")
    Term.(const do_reproduce $ what $ budget $ runs $ seed_arg)

(* --- telemetry-check --------------------------------------------------- *)

(* Validator for the artifacts of [--metrics-out] / [--trace-out]; CI
   runs it after the telemetry smoke fuzz. *)

let read_whole path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_metrics_file path =
  match Json.parse (read_whole path) with
  | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" path e)
  | Ok doc -> (
      let get k = Json.member k doc in
      match (get "schema", get "metrics", get "stages", get "accounted_share") with
      | Some (Json.String "revizor.metrics.v1"), Some metrics, Some (Json.Obj stages), Some share
        -> (
          let n_counters =
            match Json.member "counters" metrics with
            | Some (Json.Obj kvs) -> List.length kvs
            | _ -> 0
          in
          if n_counters = 0 then
            Error (Printf.sprintf "%s: metrics.counters is empty" path)
          else
            match Json.to_float share with
            | Some s ->
                Ok
                  (Printf.sprintf
                     "%s: OK (%d counters, %d stages, %.1f%% of wall time accounted)"
                     path n_counters (List.length stages) (100. *. s))
            | None -> Error (Printf.sprintf "%s: accounted_share not a number" path))
      | _ ->
          Error
            (Printf.sprintf
               "%s: missing schema/metrics/stages/accounted_share keys" path))

(* A malformed FINAL line is tolerated and reported: a campaign killed
   mid-write (SIGKILL, OOM) leaves exactly one truncated tail line, and
   the artifact up to it is still valid evidence. Malformed lines
   anywhere else still fail the check. *)
let check_trace_file path =
  match Revizor_obs.Trace_analysis.load_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok (lines, sc) ->
      if sc.Telemetry.sc_spans + sc.Telemetry.sc_events = 0 then
        Error (Printf.sprintf "%s: no events" path)
      else
        (* Structural validation on top of the line-level scan: per
           domain, spans must nest or be disjoint (a partial overlap is
           an orphaned span end — a telemetry bug), and the deepest
           uncovered interval is reported so accounting holes are
           visible at a glance. *)
        let module T = Revizor_obs.Trace_analysis in
        let groups = T.by_domain (T.spans_of_lines lines) in
        let orphans =
          List.concat_map
            (fun (dom, spans) ->
              List.map (fun pair -> (dom, pair)) (T.check_nesting spans).T.nst_orphans)
            groups
        in
        if orphans <> [] then
          let dom, (outer, inner) = List.hd orphans in
          Error
            (Printf.sprintf
               "%s: %d orphaned span(s) — e.g. dom %d: %S [%d,+%d] \
                partially overlaps %S [%d,+%d]"
               path (List.length orphans) dom inner.T.sp_name inner.T.sp_start
               inner.T.sp_dur outer.T.sp_name outer.T.sp_start outer.T.sp_dur)
        else
          let gap =
            List.fold_left
              (fun acc (dom, spans) ->
                match T.deepest_gap spans with
                | Some g -> (
                    match acc with
                    | Some (_, best) when best.T.g_dur >= g.T.g_dur -> acc
                    | _ -> Some (dom, g))
                | None -> acc)
              None groups
          in
          Ok
            (Printf.sprintf "%s: OK (%d spans, %d events, nesting valid%s%s)"
               path sc.Telemetry.sc_spans sc.Telemetry.sc_events
               (match gap with
               | Some (dom, g) ->
                   Printf.sprintf
                     "; deepest unaccounted gap %.2f ms on dom %d between \
                      %s and %s"
                     (float_of_int g.T.g_dur /. 1e6)
                     dom g.T.g_after g.T.g_before
               | None -> "")
               (if sc.Telemetry.sc_truncated_tail then
                  "; truncated final line tolerated"
                else ""))

let do_telemetry_check metrics_file trace_file =
  let results =
    (match metrics_file with Some p -> [ check_metrics_file p ] | None -> [])
    @ (match trace_file with Some p -> [ check_trace_file p ] | None -> [])
  in
  if results = [] then begin
    Printf.eprintf "nothing to check: pass --metrics and/or --trace\n";
    2
  end
  else begin
    List.iter
      (function
        | Ok msg -> Printf.printf "%s\n" msg
        | Error msg -> Printf.eprintf "FAIL %s\n" msg)
      results;
    if List.for_all Result.is_ok results then 0 else 1
  end

let telemetry_check_cmd =
  let metrics_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:"Metrics JSON from --metrics-out.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"JSONL trace from --trace-out.")
  in
  Cmd.v
    (Cmd.info "telemetry-check"
       ~doc:"Validate --metrics-out / --trace-out artifacts (used by CI).")
    Term.(const do_telemetry_check $ metrics_file $ trace_file)

(* --- monitor: query a live campaign's endpoint ------------------------- *)

let do_monitor sock cmd =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "revizor: cannot connect to %s: %s\n" sock
        (Unix.error_message e);
      2
  | () -> (
      (* The server answers at test-case boundaries, so a response may be
         a few test cases away; bound the wait rather than hanging. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
      let msg = cmd ^ "\n" in
      let rec send off =
        if off < String.length msg then
          send (off + Unix.write_substring fd msg off (String.length msg - off))
      in
      send 0;
      (* [prom] streams until the server closes; line commands stop at
         the first complete line. *)
      let oneshot =
        match cmd with
        | "prom" | "prometheus" | "metrics.prom" -> true
        | _ -> false
      in
      let buf = Buffer.create 1024 in
      let bytes = Bytes.create 4096 in
      let rec recv () =
        match Unix.read fd bytes 0 (Bytes.length bytes) with
        | 0 -> true
        | n ->
            Buffer.add_subbytes buf bytes 0 n;
            if (not oneshot) && Buffer.length buf > 0
               && String.contains (Buffer.contents buf) '\n'
            then true
            else recv ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            false
        | exception Unix.Unix_error _ -> false
      in
      let ok = recv () in
      print_string (Buffer.contents buf);
      if Buffer.length buf > 0 then begin
        if Buffer.nth buf (Buffer.length buf - 1) <> '\n' then print_newline ()
      end;
      flush stdout;
      if not ok then begin
        Printf.eprintf "revizor: no response from %s within 30s\n" sock;
        2
      end
      else 0)

let monitor_cmd =
  let sock =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCK" ~doc:"Socket path passed to fuzz --monitor.")
  in
  let cmd =
    Arg.(
      value & pos 1 string "status"
      & info [] ~docv:"CMD"
          ~doc:
            "Request: status, metrics, health, coverage, or prom \
             (Prometheus text).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Query a running campaign's --monitor endpoint.")
    Term.(const do_monitor $ sock $ cmd)

(* --- trace: analytics over --trace-out JSONL --------------------------- *)

module TA = Revizor_obs.Trace_analysis

let load_trace path k =
  match TA.load_file path with
  | Error e ->
      Printf.eprintf "revizor: %s\n" e;
      2
  | Ok (lines, scan) -> k lines scan

let do_trace_report file =
  load_trace file @@ fun lines scan ->
  let spans = TA.spans_of_lines lines in
  Printf.printf "%s: %d spans, %d events%s\n" file scan.Telemetry.sc_spans
    scan.Telemetry.sc_events
    (if scan.Telemetry.sc_truncated_tail then " (truncated tail dropped)"
     else "");
  if spans = [] then begin
    Printf.printf "no spans to analyze\n";
    0
  end
  else begin
    Printf.printf "\nPer-stage totals:\n";
    Printf.printf "  %-22s %9s %12s %12s %12s\n" "stage" "calls" "total ms"
      "mean us" "max us";
    List.iter
      (fun (st : TA.stage_stat) ->
        Printf.printf "  %-22s %9d %12.2f %12.1f %12.1f\n" st.TA.st_stage
          st.TA.st_calls
          (float_of_int st.TA.st_total_ns /. 1e6)
          (float_of_int st.TA.st_total_ns
          /. float_of_int (max 1 st.TA.st_calls)
          /. 1e3)
          (float_of_int st.TA.st_max_ns /. 1e3))
      (TA.stage_stats spans);
    Printf.printf "\nPer-domain utilization:\n";
    Printf.printf "  %-6s %9s %12s %12s %8s  %s\n" "dom" "spans" "busy ms"
      "stall ms" "busy%" "top stage";
    List.iter
      (fun (d : TA.domain_stat) ->
        let wall = d.TA.d_busy_ns + d.TA.d_stall_ns in
        Printf.printf "  %-6d %9d %12.2f %12.2f %7.1f%%  %s\n" d.TA.d_dom
          d.TA.d_spans
          (float_of_int d.TA.d_busy_ns /. 1e6)
          (float_of_int d.TA.d_stall_ns /. 1e6)
          (if wall = 0 then 0.
           else 100. *. float_of_int d.TA.d_busy_ns /. float_of_int wall)
          d.TA.d_top_stage)
      (TA.domain_stats spans);
    let ok = ref true in
    List.iter
      (fun (dom, group) ->
        let n = TA.check_nesting group in
        if n.TA.nst_orphans <> [] then begin
          ok := false;
          Printf.printf "\ndom %d: %d ORPHANED span pair(s)\n" dom
            (List.length n.TA.nst_orphans)
        end;
        match TA.deepest_gap group with
        | Some g when g.TA.g_dur > 0 ->
            Printf.printf
              "dom %d: max depth %d, deepest gap %.2f ms (%s -> %s)\n" dom
              n.TA.nst_max_depth
              (float_of_int g.TA.g_dur /. 1e6)
              g.TA.g_after g.TA.g_before
        | _ -> Printf.printf "dom %d: max depth %d, no gaps\n" dom n.TA.nst_max_depth)
      (TA.by_domain spans);
    if !ok then 0 else 1
  end

let do_trace_export file out =
  load_trace file @@ fun lines _scan ->
  Revizor_obs.Atomic_file.write out (Json.to_string (TA.to_chrome lines) ^ "\n");
  Printf.printf "wrote %s (load in Perfetto / chrome://tracing)\n" out;
  0

let do_trace_diff file_a file_b =
  load_trace file_a @@ fun lines_a _ ->
  load_trace file_b @@ fun lines_b _ ->
  let rows = TA.diff (TA.spans_of_lines lines_a) (TA.spans_of_lines lines_b) in
  Printf.printf "%-22s %18s %18s %10s\n" "stage"
    (Filename.basename file_a ^ " mean us")
    (Filename.basename file_b ^ " mean us")
    "B/A";
  List.iter
    (fun (r : TA.diff_row) ->
      let mean m = if Float.is_nan m then "-" else Printf.sprintf "%.1f" (m /. 1e3) in
      Printf.printf "%-22s %18s %18s %10s\n" r.TA.dr_stage
        (mean r.TA.dr_mean_a_ns) (mean r.TA.dr_mean_b_ns)
        (if Float.is_nan r.TA.dr_mean_ratio then "-"
         else Printf.sprintf "%.2fx" r.TA.dr_mean_ratio))
    rows;
  0

let trace_cmd =
  let file n doc = Arg.(required & pos n (some file) None & info [] ~docv:"FILE" ~doc) in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Per-stage and per-domain summary of a --trace-out JSONL file: \
            stage totals, domain utilization with stall attribution, span \
            nesting and the deepest unaccounted gap.")
      Term.(const do_trace_report $ file 0 "JSONL trace from --trace-out.")
  in
  let export =
    let out =
      Arg.(
        value & opt string "trace.perfetto.json"
        & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path.")
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Convert a --trace-out JSONL file to Chrome trace-event JSON \
            (loadable in Perfetto / chrome://tracing).")
      Term.(const do_trace_export $ file 0 "JSONL trace from --trace-out." $ out)
  in
  let diff =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Per-stage regression table between two recorded runs: calls, \
            mean time and the B/A mean ratio per stage.")
      Term.(
        const do_trace_diff
        $ file 0 "Baseline JSONL trace."
        $ file 1 "Candidate JSONL trace.")
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Analyze --trace-out telemetry (report/export/diff).")
    [ report; export; diff ]

(* --- forensics --------------------------------------------------------- *)

let do_forensics_show path =
  let path =
    if Sys.file_exists path && Sys.is_directory path then
      Forensics.file ~dir:path
    else path
  in
  match Forensics.load path with
  | Error e ->
      Printf.eprintf "revizor: %s\n" e;
      2
  | Ok f ->
      print_string (Forensics.render f);
      0

let forensics_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:"A forensics.json file, or a fuzz --save directory.")
  in
  let show =
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Render a violation's flight-recorder artifact: program, \
            diverging traces, speculation timeline, fence-localized leak \
            region.")
      Term.(const do_forensics_show $ path)
  in
  Cmd.group
    (Cmd.info "forensics" ~doc:"Inspect violation flight-recorder artifacts.")
    [ show ]

(* --- coverage: the microarchitectural coverage atlas ------------------- *)

(* Accepts a stats.json path or a directory holding one (fuzz --save /
   --stats-out both produce the same revizor.stats.v1 document). *)
let load_atlas path =
  let stats_path =
    if Sys.file_exists path && Sys.is_directory path then
      Filename.concat path "stats.json"
    else path
  in
  match Results.load_stats stats_path with
  | Error e -> Error e
  | Ok { Results.ucoverage = None; _ } ->
      Error
        (Printf.sprintf
           "%s: no coverage atlas (campaign ran with --no-ucoverage, or the \
            file predates atlas collection)"
           stats_path)
  | Ok { Results.ucoverage = Some u; stats; _ } -> Ok (u, stats)

let with_atlas path k =
  match load_atlas path with
  | Error e ->
      Printf.eprintf "revizor: %s\n" e;
      2
  | Ok (u, stats) -> k u stats

(* The curve is monotone by construction (every point adds at least one
   feature at a later test case); verifying it here makes [coverage
   report] a self-check CI can lean on. *)
let frontier_monotone u =
  let rec go = function
    | (t1, n1) :: ((t2, n2) :: _ as rest) ->
        t1 < t2 && n1 < n2 && go rest
    | _ -> true
  in
  go (Ucoverage.frontier u)

let do_coverage_report path =
  with_atlas path @@ fun u stats ->
  let test_cases =
    Option.map (fun (s : Fuzzer.stats) -> s.Fuzzer.test_cases) stats
  in
  print_string (Ucoverage.render_report ?test_cases u);
  if frontier_monotone u then 0
  else begin
    Printf.eprintf "revizor: saturation curve is not monotone (corrupt atlas)\n";
    1
  end

let do_coverage_diff path_a path_b =
  with_atlas path_a @@ fun a _ ->
  with_atlas path_b @@ fun b _ ->
  let only_a, only_b = Ucoverage.diff a b in
  let show title features =
    Printf.printf "%s (%d):\n" title (List.length features);
    List.iter
      (fun f -> Printf.printf "  %s\n" (Ucoverage.feature_to_string f))
      features
  in
  if only_a = [] && only_b = [] then begin
    Printf.printf
      "atlases cover identical feature sets (%d features each)\n"
      (Ucoverage.distinct a);
    0
  end
  else begin
    show (Printf.sprintf "only covered by %s" path_a) only_a;
    show (Printf.sprintf "only covered by %s" path_b) only_b;
    0
  end

let do_coverage_export path out format frontier_only =
  with_atlas path @@ fun u _ ->
  let contents =
    match format with
    | `Json ->
        Json.to_string_pretty
          (if frontier_only then
             Json.List
               (List.map
                  (fun (tc, n) -> Json.List [ Json.Int tc; Json.Int n ])
                  (Ucoverage.frontier u))
           else Ucoverage.to_json u)
        ^ "\n"
    | `Csv ->
        if frontier_only then
          "test_case,cumulative_features\n"
          ^ String.concat ""
              (List.map
                 (fun (tc, n) -> Printf.sprintf "%d,%d\n" tc n)
                 (Ucoverage.frontier u))
        else
          "feature,first_hit_tc\n"
          ^ String.concat ""
              (List.map
                 (fun (f, tc) ->
                   Printf.sprintf "%s,%d\n" (Ucoverage.feature_to_string f) tc)
                 (Ucoverage.first_hits u))
  in
  (match out with
  | Some o ->
      Revizor_obs.Atomic_file.write o contents;
      Printf.printf "wrote %s\n" o
  | None -> print_string contents);
  0

let coverage_cmd =
  let atlas_pos n doc =
    Arg.(required & pos n (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Render a campaign's microarchitectural coverage atlas: \
            per-mechanism and per-bucket feature tables with first-hit \
            test cases, and the saturation curve. Exits non-zero if the \
            curve is not monotone.")
      Term.(
        const do_coverage_report
        $ atlas_pos 0 "A stats.json (from fuzz --save or --stats-out), or a \
                       directory holding one.")
  in
  let diff =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Differential coverage between two campaigns: which speculation \
            features each covered that the other did not (e.g. an \
            unpatched target vs its patched variant).")
      Term.(
        const do_coverage_diff
        $ atlas_pos 0 "Baseline stats.json or directory."
        $ atlas_pos 1 "Comparison stats.json or directory.")
  in
  let export =
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path (default stdout).")
    in
    let format =
      Arg.(
        value
        & opt (enum [ ("csv", `Csv); ("json", `Json) ]) `Csv
        & info [ "format" ] ~docv:"FMT" ~doc:"Output format: csv or json.")
    in
    let frontier_only =
      Arg.(
        value & flag
        & info [ "frontier" ]
            ~doc:
              "Export the saturation curve (test case, cumulative features) \
               instead of the per-feature first-hit table.")
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Export the atlas as CSV or JSON: per-feature first hits, or \
            the saturation curve with --frontier.")
      Term.(
        const do_coverage_export
        $ atlas_pos 0 "A stats.json or directory holding one."
        $ out $ format $ frontier_only)
  in
  Cmd.group
    (Cmd.info "coverage"
       ~doc:
         "Inspect microarchitectural coverage atlases (report/diff/export).")
    [ report; diff; export ]

(* --- isa --------------------------------------------------------------- *)

let do_isa () =
  let open Revizor_isa in
  let show name subsets =
    Printf.printf "%-18s %4d unique instruction variants\n" name
      (Catalog.count subsets)
  in
  show "AR" [ Catalog.AR ];
  show "AR+MEM" [ Catalog.AR; Catalog.MEM ];
  show "AR+MEM+VAR" [ Catalog.AR; Catalog.MEM; Catalog.VAR ];
  show "AR+CB" [ Catalog.AR; Catalog.CB ];
  show "AR+MEM+CB" [ Catalog.AR; Catalog.MEM; Catalog.CB ];
  show "AR+MEM+CB+VAR" [ Catalog.AR; Catalog.MEM; Catalog.CB; Catalog.VAR ];
  show "+IND (extension)"
    [ Catalog.AR; Catalog.MEM; Catalog.CB; Catalog.VAR; Catalog.IND ];
  0

let isa_cmd =
  Cmd.v
    (Cmd.info "isa" ~doc:"Report the instruction-catalog sizes (cf. §6.1).")
    Term.(const do_isa $ const ())

(* --- fleet: multi-process campaign orchestration ----------------------- *)

module Fleet_ledger = Revizor_fleet.Ledger
module Fleet_merge = Revizor_fleet.Merge
module Fleet_orch = Revizor_fleet.Orchestrator

(* Closing summary for run/resume/status: ledger counts plus the merged
   corpus. Exit codes: 0 compliant, 1 violations found, 3 shards
   quarantined (results incomplete), 2 operational error. *)
let fleet_summary dir =
  match Fleet_ledger.load ~dir with
  | Error e ->
      Printf.eprintf "revizor: %s\n" e;
      2
  | Ok ledger ->
      let p, l, d, q = Fleet_ledger.counts ledger in
      Printf.printf
        "fleet %s: %d shards — %d done, %d pending, %d leased, %d quarantined\n"
        (Fleet_ledger.fingerprint ledger.Fleet_ledger.spec)
        (Array.length ledger.Fleet_ledger.shards)
        d p l q;
      let violations =
        match Fleet_merge.load ~dir ~spec:ledger.Fleet_ledger.spec with
        | Error e ->
            Printf.printf "  (no merged corpus: %s)\n" e;
            0
        | Ok m ->
            let vs = Fleet_merge.violations m in
            Printf.printf "  merged: %d shards, %d violations, %d atlas features\n"
              (List.length (Fleet_merge.shards m))
              (List.length vs)
              (Ucoverage.distinct (Fleet_merge.atlas m));
            List.iter
              (fun (v : Fleet_merge.violation) ->
                Printf.printf "  shard %d (seed 0x%Lx): %s\n" v.Fleet_merge.mv_shard
                  v.Fleet_merge.mv_seed
                  v.Fleet_merge.mv_entry.Revizor_fleet.Worker.v_label)
              vs;
            List.length vs
      in
      flush stdout;
      if q > 0 then 3 else if violations > 0 then 1 else 0

let arm_faults fault_inject fault_seed =
  match fault_inject with
  | None -> Ok ()
  | Some spec -> (
      match Revizor_obs.Faultpoint.parse_spec spec with
      | Ok points ->
          Revizor_obs.Faultpoint.enable ~seed:fault_seed points;
          Ok ()
      | Error e -> Error (Printf.sprintf "--fault-inject: %s" e))

let do_fleet_run dir contract target shards seed budget inputs workers lease
    max_attempts checkpoint_every fleet_seed fault_inject fault_seed
    as_reference quiet =
  match arm_faults fault_inject fault_seed with
  | Error e ->
      Printf.eprintf "revizor: %s\n" e;
      2
  | Ok () -> (
      let seeds = List.init shards (fun i -> Int64.add seed (Int64.of_int i)) in
      let spec =
        {
          (Fleet_ledger.default_spec ~target:target.Target.name
             ~contract:(Contract.name contract) ~seeds)
          with
          Fleet_ledger.sp_budget = budget;
          sp_n_inputs = inputs;
          sp_workers = max 1 workers;
          sp_lease_s = lease;
          sp_max_attempts = max_attempts;
          sp_checkpoint_every = checkpoint_every;
          sp_fleet_seed = fleet_seed;
        }
      in
      let log =
        if quiet then fun _ -> ()
        else fun s -> Printf.printf "[fleet] %s\n%!" s
      in
      if as_reference then begin
        match Fleet_orch.reference ~dir ~log spec with
        | Ok () -> fleet_summary dir
        | Error e ->
            Printf.eprintf "revizor: %s\n" e;
            2
      end
      else begin
        install_signal_handlers ();
        if not quiet then
          Printf.printf
            "Fleet: %s vs %s — %d shards (seeds 0x%Lx..0x%Lx), %d workers, \
             budget %d, lease %.1fs\n%!"
            target.Target.name (Contract.name contract) shards seed
            (Int64.add seed (Int64.of_int (shards - 1)))
            spec.Fleet_ledger.sp_workers budget lease;
        match
          Fleet_orch.run ~dir ~log
            ~should_stop:(fun () -> Atomic.get stop_requested)
            spec
        with
        | Ok Fleet_orch.Completed -> fleet_summary dir
        | Ok Fleet_orch.Interrupted ->
            if not quiet then Printf.printf "[fleet] interrupted; resume with `revizor fleet resume --dir %s`\n%!" dir;
            ignore (fleet_summary dir);
            130
        | Error e ->
            Printf.eprintf "revizor: %s\n" e;
            2
      end)

let do_fleet_resume dir fault_inject fault_seed quiet =
  match arm_faults fault_inject fault_seed with
  | Error e ->
      Printf.eprintf "revizor: %s\n" e;
      2
  | Ok () -> (
      install_signal_handlers ();
      let log =
        if quiet then fun _ -> ()
        else fun s -> Printf.printf "[fleet] %s\n%!" s
      in
      match
        Fleet_orch.resume ~dir ~log
          ~should_stop:(fun () -> Atomic.get stop_requested)
          ()
      with
      | Ok Fleet_orch.Completed -> fleet_summary dir
      | Ok Fleet_orch.Interrupted ->
          ignore (fleet_summary dir);
          130
      | Error e ->
          Printf.eprintf "revizor: %s\n" e;
          2)

let do_fleet_status dir =
  let sock = Fleet_ledger.fleet_sock dir in
  (* Prefer the live orchestrator's status socket; fall back to reading
     the ledger off disk when no orchestrator is running. *)
  if
    Sys.file_exists sock
    && Fleet_orch.heartbeat_alive ~sock_path:sock ~timeout:0.3
  then do_monitor sock "status"
  else fleet_summary dir

let fleet_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:"Fleet campaign directory (ledger, checkpoints, merged corpus).")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of shards: campaign seeds SEED..SEED+N-1, one per shard.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "w"; "workers" ] ~docv:"N" ~doc:"Concurrent worker processes.")
  in
  let lease =
    Arg.(
      value & opt float 5.
      & info [ "lease" ] ~docv:"SECONDS"
          ~doc:
            "Shard lease length. Heartbeats over the worker's monitor \
             socket renew it; an expired lease means a crashed or hung \
             worker, which is killed and its shard re-adopted from its \
             last checkpoint.")
  in
  let max_attempts =
    Arg.(
      value & opt int 5
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:
            "Failed adoptions (with capped-backoff re-adoption gates) \
             before a shard is quarantined.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 10
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Test cases between a worker's periodic shard checkpoints.")
  in
  let fleet_seed =
    Arg.(
      value & opt int64 42L
      & info [ "fleet-seed" ] ~docv:"SEED"
          ~doc:"Seed for the deterministic re-adoption backoff jitter.")
  in
  let fault_inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-inject" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic fault injection (fleet points: \
             $(b,fleet.spawn), $(b,fleet.heartbeat), $(b,fleet.merge), \
             $(b,fleet.ledger_write), $(b,fleet.worker_crash), \
             $(b,fleet.worker_hang); plus every in-worker point).")
  in
  let fault_seed =
    Arg.(
      value & opt int64 42L
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed for the fault-injection schedule (with --fault-inject).")
  in
  let as_reference =
    Arg.(
      value & flag
      & info [ "reference" ]
          ~doc:
            "Run the shards sequentially in-process through the same merge \
             code (no forking, no faults): the byte-identity baseline a \
             fleet run over the same spec is diffed against.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress output.")
  in
  let run =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a sharded campaign across worker processes under the \
            lease-based ledger; crash/hang recovery resumes shards from \
            their checkpoints with bit-identical merged results.")
      Term.(
        const do_fleet_run $ dir_arg $ contract_arg $ target_arg $ shards
        $ seed_arg $ budget_arg $ inputs_arg $ workers $ lease $ max_attempts
        $ checkpoint_every $ fleet_seed $ fault_inject $ fault_seed
        $ as_reference $ quiet)
  in
  let resume =
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Resume a fleet campaign after orchestrator death: the ledger \
            and shard checkpoints alone reconstruct the state; merged \
            results are byte-identical to an uninterrupted run.")
      Term.(const do_fleet_resume $ dir_arg $ fault_inject $ fault_seed $ quiet)
  in
  let status =
    let dir_pos =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"DIR" ~doc:"Fleet campaign directory.")
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Query a fleet: the live orchestrator's status socket when one \
            is running, the on-disk ledger and merged corpus otherwise.")
      Term.(const do_fleet_status $ dir_pos)
  in
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Multi-process campaign orchestration: lease-based shard ledger, \
          checkpointed crash recovery, central corpus merge.")
    [ run; resume; status ]

let main =
  Cmd.group
    (Cmd.info "revizor" ~version:"1.0.0"
       ~doc:
         "Model-based Relational Testing of (simulated) black-box CPUs \
          against speculation contracts.")
    [
      fuzz_cmd; check_cmd; gadget_cmd; reproduce_cmd; isa_cmd;
      telemetry_check_cmd; monitor_cmd; trace_cmd; forensics_cmd;
      coverage_cmd; fleet_cmd;
    ]

let () = exit (Cmd.eval' main)
