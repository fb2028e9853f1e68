(* One step of a benchmark workload, in a fresh process.

   [run.py] starts this executable once per step and reads the single
   JSON object it prints on its last stdout line:

     revizor_perfbench.exe campaigns --workload audit|hunt --from I --count N
       [--trace --spans-out FILE]
     revizor_perfbench.exe fleet --from I --shards N --workers W --dir DIR
       [--trace --spans-out FILE]
     revizor_perfbench.exe selftest

   Workload inputs are campaign seeds derived from a workload tag and a
   campaign index ([Prng.derive]); run.py maps its --seed to the
   range of indices a run covers. Every campaign's outcome is checked:
   an audit must end clean at its budget, a hunt or fleet violation must
   carry the expected label and reproduce through
   [Fuzzer.check_test_case] on a fresh executor. *)

open Revizor
module Json = Revizor_obs.Json
module Metrics = Revizor_obs.Metrics
module Ledger = Revizor_fleet.Ledger
module Merge = Revizor_fleet.Merge
module Worker = Revizor_fleet.Worker
module Orchestrator = Revizor_fleet.Orchestrator

(* ---- workloads ---------------------------------------------------- *)

type cell = {
  tag : int;
  name : string;
  target : Target.t;
  contract : Contract.t;
  expect : string option;
      (* [Some label]: the campaign must end in a re-confirmed violation
         with this label; [None]: it must end clean at its budget *)
}

let audit_cell =
  {
    tag = 1; name = "audit"; target = Target.target5; contract = Contract.ct_cond;
    expect = None;
  }

(* The "None" row of Table 4 under CT-SEQ, without the V4 cell. *)
let hunt_cells =
  let cell tag name target label =
    { tag; name; target; contract = Contract.ct_seq; expect = Some label }
  in
  [
    cell 2 "v1" Target.target5 "V1";
    cell 3 "mds" Target.target7 "MDS";
    cell 4 "lvi" Target.target8 "LVI-Null";
  ]

let fleet_tag = 5
let audit_budget = 300
let hunt_budget = 1000
let fleet_budget = 1000
let fleet_label = "V1"

let campaign_seed tag coords =
  Prng.state (Prng.derive (Int64.of_int tag) (List.map Int64.of_int coords))

(* ---- per-layer accounting (traced runs) --------------------------- *)

let traced = ref false

(* The fuzz loop's stage probes, by the layer they time. *)
let stage_layers =
  [
    ("generate", "generator"); ("compile", "compiled"); ("materialize", "input");
    ("model", "model"); ("execute", "executor"); ("analyze", "analyzer");
    ("swap_check", "filter"); ("nesting_recheck", "filter");
    ("loop.other", "loop_other"); ("checkpoint", "campaign");
  ]

let stage_counters =
  List.map (fun (s, l) -> (Metrics.counter ("stage." ^ s ^ ".ns"), l)) stage_layers

let layer_names =
  [
    "generator"; "compiled"; "input"; "model"; "executor"; "analyzer"; "filter";
    "loop_other"; "campaign"; "campaign_setup";
  ]

let find_or_0 tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)
let bump tbl key n = Hashtbl.replace tbl key (n + find_or_0 tbl key)
let layers : (string, int) Hashtbl.t = Hashtbl.create 16

(* Registry counters whose deltas over the timed calls the traced run
   reports. *)
let delta_counters =
  [
    "executor.input_runs"; "executor.memo_hits"; "fuzzer.candidates";
    "fuzzer.dismissed_by_swap"; "fuzzer.dismissed_by_nesting";
    "fuzzer.checkpoints"; "stage.checkpoint.ns"; "fuzzer.test_cases";
  ]

let counter_deltas : (string, int) Hashtbl.t = Hashtbl.create 16
let gc_ns = ref 0
let minor_words = ref 0.

(* Run [f] as one timed call into the program. When tracing, attribute
   the stage probes' growth to their layers and whatever the probes do
   not cover to [rest], and accumulate counter, GC and allocation deltas. *)
let traced_call name ~rest f =
  if not !traced then f ()
  else begin
    let stages0 = List.map (fun (c, _) -> Metrics.value c) stage_counters in
    let value n = Metrics.value (Metrics.counter n) in
    let counters0 = List.map value delta_counters in
    let gc0 = Gc_events.gc_ns () in
    let words0 = Gc.minor_words () in
    let r, ns = Spans.timed name f in
    let staged =
      List.fold_left2
        (fun acc (c, layer) v0 ->
          let d = Metrics.value c - v0 in
          bump layers layer d;
          acc + d)
        0 stage_counters stages0
    in
    bump layers rest (ns - staged);
    List.iter2
      (fun n v0 -> bump counter_deltas n (value n - v0))
      delta_counters counters0;
    gc_ns := !gc_ns + (Gc_events.gc_ns () - gc0);
    minor_words := !minor_words +. (Gc.minor_words () -. words0);
    r
  end

(* ---- outcome checks ----------------------------------------------- *)

let reproduces cfg program inputs ~label =
  let executor =
    Executor.create (Revizor_uarch.Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor
  in
  match Fuzzer.check_test_case cfg executor program inputs with
  | Ok (Some v) -> v.Violation.label = label
  | Ok None | Error _ -> false

type record = {
  id : string;
  verdict : string;  (* violation | clean | miss | quarantined *)
  label : string;
  tc : int;
  ttd_s : float;
  cpu_s : float;  (* timed CPU of the whole campaign; fleet shards: nan *)
  wall_s : float;
  ok : bool;
}

let record_json r =
  Json.Obj
    ([
       ("id", Json.String r.id); ("verdict", Json.String r.verdict);
       ("label", Json.String r.label); ("tc", Json.Int r.tc);
       ("ttd_s", Json.Float r.ttd_s); ("ok", Json.Bool r.ok);
     ]
    @
    if Float.is_nan r.cpu_s then []
    else [ ("cpu_s", Json.Float r.cpu_s); ("wall_s", Json.Float r.wall_s) ])

(* Deterministic outputs of one campaign: its stats without elapsed_s,
   its coverage atlas, and its violation label with the test-case index. *)
let campaign_digest ~id stats ucov outcome =
  let tc = stats.Fuzzer.test_cases in
  let stats_json =
    match Fuzzer.stats_to_json stats with
    | Json.Obj kv -> Json.Obj (List.remove_assoc "elapsed_s" kv)
    | j -> j
  in
  let violation =
    match outcome with
    | Fuzzer.Violation v ->
        Json.Obj
          [ ("label", Json.String v.Violation.label); ("tc", Json.Int tc) ]
    | Fuzzer.No_violation -> Json.Null
  in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.String id); ("stats", stats_json);
         ("atlas", Ucoverage.to_json ucov); ("violation", violation);
       ])

(* ---- process-wide results ----------------------------------------- *)

let setup_cpu = ref None
let mark_setup () =
  if !setup_cpu = None then setup_cpu := Some (Clocks.cpu_self ())

let timed_cpu = ref 0.
let timed_wall = ref 0.
let timed_ns = ref 0
let committed = ref 0
let records = ref []
let digests = Buffer.create 4096

(* ---- audit and hunt ------------------------------------------------ *)

let run_campaign cell ~index ~budget =
  let seed = campaign_seed cell.tag [ index ] in
  let id = Printf.sprintf "%s/%d" cell.name index in
  (* Drain the runtime's event ring at every test case, so a long audit
     campaign cannot overrun it. *)
  let on_progress = if !traced then Some (fun _ -> Gc_events.poll ()) else None in
  let c0 = Clocks.cpu_self () and w0 = Clocks.wall () in
  let (cfg, ucov, (outcome, stats), ttd_s), ns =
    Spans.timed "campaign" (fun () ->
        let cfg =
          traced_call "config" ~rest:"campaign_setup" (fun () ->
              Target.fuzzer_config ~seed cell.contract cell.target)
        in
        let ucov = Ucoverage.create () in
        mark_setup ();
        let f0 = Clocks.cpu_self () in
        let result =
          traced_call "fuzz" ~rest:"campaign_setup" (fun () ->
              Fuzzer.fuzz ?on_progress ~ucoverage:ucov cfg
                ~budget:(Fuzzer.Test_cases budget))
        in
        (cfg, ucov, result, Clocks.cpu_self () -. f0))
  in
  let cpu_s = Clocks.cpu_self () -. c0 and wall_s = Clocks.wall () -. w0 in
  timed_cpu := !timed_cpu +. cpu_s;
  timed_wall := !timed_wall +. wall_s;
  timed_ns := !timed_ns + ns;
  committed := !committed + stats.Fuzzer.test_cases;
  Buffer.add_string digests (campaign_digest ~id stats ucov outcome);
  Buffer.add_char digests '\n';
  let verdict, label, ok =
    Spans.with_ "confirm" (fun () ->
        match (outcome, cell.expect) with
        | Fuzzer.No_violation, None ->
            ("clean", "", stats.Fuzzer.test_cases = budget)
        | Fuzzer.No_violation, Some _ -> ("miss", "", false)
        | Fuzzer.Violation v, expect ->
            let label = v.Violation.label in
            ( "violation", label,
              expect = Some label
              && reproduces cfg v.Violation.program v.Violation.inputs ~label ))
  in
  records :=
    { id; verdict; label; tc = stats.Fuzzer.test_cases; ttd_s; cpu_s; wall_s; ok }
    :: !records

let run_campaigns workload ~from ~count =
  Spans.with_ "run" (fun () ->
      for i = from to from + count - 1 do
        match workload with
        | "audit" -> run_campaign audit_cell ~index:i ~budget:audit_budget
        | _ ->
            List.iter (fun c -> run_campaign c ~index:i ~budget:hunt_budget) hunt_cells
      done)

let harvest_samples workload ~from =
  match workload with
  | "audit" ->
      let cfg =
        Target.fuzzer_config ~seed:(campaign_seed audit_cell.tag [ from ])
          audit_cell.contract audit_cell.target
      in
      Replay.harvest cfg ~budget:audit_budget ~every:25 ~max:12
  | _ ->
      List.concat_map
        (fun c ->
          let cfg =
            Target.fuzzer_config ~seed:(campaign_seed c.tag [ from ]) c.contract c.target
          in
          Replay.harvest cfg ~budget:hunt_budget ~every:5 ~max:8)
        hunt_cells

(* ---- fleet --------------------------------------------------------- *)

(* Shard k of a fleet started at index [from] is campaign [from + k] of
   the fleet workload's sequence. *)
let fleet_spec ~from ~shards ~workers =
  let seeds = List.init shards (fun k -> campaign_seed fleet_tag [ from + k ]) in
  {
    (Ledger.default_spec ~target:"Target 5" ~contract:"CT-SEQ" ~seeds) with
    Ledger.sp_budget = fleet_budget;
    sp_workers = workers;
    sp_checkpoint_every = 10;
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let confirm_entry spec ~seed (e : Worker.violation_entry) =
  let inputs =
    List.fold_right
      (fun line acc ->
        match (Results.input_of_line line, acc) with
        | Ok i, Ok l -> Ok (i :: l)
        | Error e, _ | _, Error e -> Error e)
      e.Worker.v_inputs (Ok [])
  in
  match
    ( Worker.config_of_spec spec ~seed,
      Revizor_isa.Asm_parser.parse_program e.Worker.v_program,
      inputs )
  with
  | Ok cfg, Ok program, Ok inputs -> reproduces cfg program inputs ~label:e.Worker.v_label
  | _ -> false

let fleet_extra = ref []

(* Shards run in worker processes, so only the fleet as a whole has a
   CPU time. *)
let no_cpu =
  {
    id = ""; verdict = ""; label = ""; tc = 0; ttd_s = 0.; cpu_s = nan; wall_s = nan;
    ok = false;
  }

let run_fleet ~dir ~from ~shards ~workers ~reference =
  let spec = fleet_spec ~from ~shards ~workers in
  let w0 = ref 0. in
  let done_at = Hashtbl.create 64 in
  let log msg =
    match Scanf.sscanf_opt msg "shard %d done" Fun.id with
    | Some id -> Hashtbl.replace done_at id (Clocks.wall () -. !w0)
    | None -> ()
  in
  mark_setup ();
  let c0 = Clocks.cpu_tree () and children0 = Clocks.cpu_children () in
  w0 := Clocks.wall ();
  let result =
    Spans.with_ "run" (fun () ->
        Spans.with_ "fleet.run" (fun () -> Orchestrator.run ~dir ~log spec))
  in
  let wall = Clocks.wall () -. !w0 in
  let fleet_cpu = Clocks.cpu_tree () -. c0 in
  let workers_cpu = Clocks.cpu_children () -. children0 in
  timed_cpu := fleet_cpu;
  timed_wall := wall;
  (match result with
  | Ok Orchestrator.Completed -> ()
  | Ok Orchestrator.Interrupted -> failwith "fleet interrupted"
  | Error e -> failwith ("fleet: " ^ e));
  let merged =
    match Merge.load ~dir ~spec with Ok m -> m | Error e -> failwith ("merge: " ^ e)
  in
  let ledger =
    match Ledger.load ~dir with Ok l -> l | Error e -> failwith ("ledger: " ^ e)
  in
  committed := (Merge.stats merged).Fuzzer.test_cases;
  Buffer.add_string digests (read_file (Ledger.merged_path dir));
  let violations = Merge.violations merged in
  Spans.with_ "confirm" (fun () ->
      Array.iter
        (fun (sh : Ledger.shard) ->
          let id = Printf.sprintf "fleet/%d" (from + sh.Ledger.sh_id) in
          let ttd_s =
            Option.value ~default:wall (Hashtbl.find_opt done_at sh.Ledger.sh_id)
          in
          let r =
            match
              List.find_opt (fun v -> v.Merge.mv_shard = sh.Ledger.sh_id) violations
            with
            | _ when sh.Ledger.sh_state = Ledger.Quarantined ->
                { no_cpu with id; verdict = "quarantined"; ttd_s }
            | Some v ->
                let e = v.Merge.mv_entry in
                {
                  no_cpu with
                  id; verdict = "violation"; label = e.Worker.v_label; tc = e.Worker.v_tc;
                  ttd_s;
                  ok =
                    e.Worker.v_label = fleet_label
                    && confirm_entry spec ~seed:sh.Ledger.sh_seed e;
                }
            | None ->
                { no_cpu with id; verdict = "miss"; tc = fleet_budget; ttd_s }
          in
          records := r :: !records)
        ledger.Ledger.shards);
  if reference then begin
    (* The in-process sequential reference over the same spec: its merged
       output must be byte-identical, its CPU time is the fleet's minus
       the per-shard process machinery, and it is where the fleet's shards
       can be timed layer by layer. *)
    Gc_events.start ();
    let ref_dir = Filename.concat dir "reference" in
    let c1 = Clocks.cpu_self () in
    let reference, ns =
      Spans.timed "run" (fun () ->
          traced_call "fleet.reference" ~rest:"campaign_setup" (fun () ->
              Orchestrator.reference ~dir:ref_dir spec))
    in
    let ref_cpu = Clocks.cpu_self () -. c1 in
    timed_ns := ns;
    let identical =
      match reference with
      | Ok () ->
          read_file (Ledger.merged_path dir) = read_file (Ledger.merged_path ref_dir)
      | Error _ -> false
    in
    let shards = Array.to_list ledger.Ledger.shards in
    let quarantined =
      List.length (List.filter (fun sh -> sh.Ledger.sh_state = Ledger.Quarantined) shards)
    and attempts = List.fold_left (fun a sh -> a + sh.Ledger.sh_attempts) 0 shards in
    let n = float_of_int (Array.length ledger.Ledger.shards) in
    fleet_extra :=
      [
        ("reference_identical", Json.Bool identical);
        ("shard_fixed_s", Json.Float ((fleet_cpu -. ref_cpu) /. n));
        ( "idle_share",
          Json.Float (1. -. (workers_cpu /. (float_of_int workers *. wall))) );
        ("attempts_per_shard", Json.Float ((float_of_int attempts +. n) /. n));
        ("quarantined", Json.Int quarantined);
      ]
  end;
  spec

(* ---- self-test of the clocks -------------------------------------- *)

(* The fleet's CPU clock must charge reaped children: fork a child that
   burns CPU, reap it, and check the tree clock grew by the child's time
   while the self clock did not. *)
let selftest () =
  let burn_s = 0.3 in
  let self0 = Clocks.cpu_self () and tree0 = Clocks.cpu_tree () in
  (match Unix.fork () with
  | 0 ->
      let t0 = Clocks.cpu_self () in
      let x = ref 0 in
      while Clocks.cpu_self () -. t0 < burn_s do
        for i = 1 to 10_000 do x := !x + i done
      done;
      Unix._exit (if !x = 0 then 1 else 0)
  | pid -> ignore (Unix.waitpid [] pid));
  let self_d = Clocks.cpu_self () -. self0 and tree_d = Clocks.cpu_tree () -. tree0 in
  let ok = tree_d >= 0.9 *. burn_s && self_d < 0.5 *. burn_s in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("ok", Json.Bool ok); ("child_burn_s", Json.Float burn_s);
            ("self_delta_s", Json.Float self_d); ("tree_delta_s", Json.Float tree_d);
          ]));
  exit (if ok then 0 else 1)

(* ---- entry point --------------------------------------------------- *)

let () =
  let workload = ref "hunt" and from = ref 0 and count = ref 1 in
  let dir = ref "" and shards = ref 1 and workers = ref 1 and spans_out = ref "" in
  let replay = ref false in
  let mode = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "audit|hunt");
      ("--from", Arg.Set_int from, "first campaign index");
      ("--count", Arg.Set_int count, "campaign rounds to run");
      ("--dir", Arg.Set_string dir, "fleet directory");
      ("--shards", Arg.Set_int shards, "fleet shards");
      ("--workers", Arg.Set_int workers, "fleet worker processes");
      ("--trace", Arg.Set traced, "record spans and per-layer data");
      ("--spans-out", Arg.Set_string spans_out, "where the traced run writes its spans");
      ( "--replay",
        Arg.Set replay,
        "replay a sample of test cases for unit costs (fleet: and run the \
         in-process reference)" );
    ]
  in
  Arg.parse specs
    (fun m -> mode := m)
    "revizor_perfbench.exe campaigns|fleet|selftest [options]";
  if !traced then
    Spans.enable ~run:(Printf.sprintf "%s-%d-%d" !mode !from (Unix.getpid ()));
  if !traced && !mode = "campaigns" then Gc_events.start ();
  let extra =
    match !mode with
    | "campaigns" ->
        run_campaigns !workload ~from:!from ~count:!count;
        if !traced && !replay then
          let samples = harvest_samples !workload ~from:!from in
          [ ("replay", Replay.to_json (Replay.run samples)) ]
        else []
    | "fleet" ->
        let spec =
          run_fleet ~dir:!dir ~from:!from ~shards:!shards ~workers:!workers
            ~reference:(!traced && !replay)
        in
        if !traced && !replay then
          let cfg =
            match Worker.config_of_spec spec ~seed:(List.hd spec.Ledger.sp_seeds) with
            | Ok c -> c
            | Error e -> failwith e
          in
          let samples = Replay.harvest cfg ~budget:fleet_budget ~every:5 ~max:12 in
          ("replay", Replay.to_json (Replay.run samples))
          :: !fleet_extra
        else !fleet_extra
    | "selftest" -> selftest ()
    | m -> prerr_endline ("unknown mode: " ^ m); exit 2
  in
  let trace =
    if not !traced then []
    else begin
      if !spans_out <> "" then Spans.write !spans_out;
      [
        ( "trace",
          Json.Obj
            ([
               ( "layers_ns",
                 Json.Obj
                   (List.map
                      (fun l -> (l, Json.Int (find_or_0 layers l)))
                      layer_names) );
               ("timed_ns", Json.Int !timed_ns);
               ("gc_ns", Json.Int !gc_ns);
               ("gc_lost_events", Json.Int !Gc_events.lost);
               ("minor_words", Json.Float !minor_words);
               ( "counters",
                 Json.Obj
                   (List.map
                      (fun n -> (n, Json.Int (find_or_0 counter_deltas n)))
                      delta_counters) );
               ("spans", Json.Int (Spans.count ()));
             ]
            @ extra) );
      ]
    end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("setup_cpu_s", Json.Float (Option.value ~default:0. !setup_cpu));
             ("timed_cpu_s", Json.Float !timed_cpu);
             ("timed_wall_s", Json.Float !timed_wall);
             ("tc", Json.Int !committed);
             ( "digest",
               Json.String (Digest.to_hex (Digest.string (Buffer.contents digests))) );
             ("campaigns", Json.List (List.rev_map record_json !records));
           ]
          @ trace)))
