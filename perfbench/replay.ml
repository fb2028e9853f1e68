(* Unit costs per layer, from a fixed sample of a workload's own test
   cases replayed through the layers' public functions.

   The sample is harvested from the workload's first campaign: every
   checkpoint snapshot carries the campaign PRNG state, generator
   configuration and input count, and restarting generation from it
   reproduces exactly the test case the fuzz loop generated next. So the
   replay sees the workload's real program sizes and input counts,
   including those reached after generator growth. *)

open Revizor
module Metrics = Revizor_obs.Metrics
module State = Revizor_emu.State
module Compiled = Revizor_emu.Compiled
module Cpu = Revizor_uarch.Cpu
module Attack = Revizor_uarch.Attack

type sample = {
  cfg : Fuzzer.config;
  prng : int64;
  gen_cfg : Generator.cfg;
  n_inputs : int;
}

let harvest cfg ~budget ~every ~max =
  let first =
    {
      cfg;
      prng = Prng.state (Prng.create ~seed:cfg.Fuzzer.seed);
      gen_cfg = cfg.Fuzzer.gen_cfg;
      n_inputs = cfg.Fuzzer.n_inputs;
    }
  in
  let acc = ref [ first ] in
  let on_checkpoint (sn : Fuzzer.snapshot) =
    if List.length !acc < max then
      acc :=
        {
          cfg;
          prng = sn.Fuzzer.sn_prng;
          gen_cfg = sn.Fuzzer.sn_gen_cfg;
          n_inputs = sn.Fuzzer.sn_n_inputs;
        }
        :: !acc
  in
  ignore
    (Fuzzer.fuzz ~checkpoint_every:every ~on_checkpoint cfg
       ~budget:(Fuzzer.Test_cases budget));
  List.rev !acc

(* Accumulated nanoseconds over accumulated units of work. *)
type acc = { mutable ns : int; mutable units : int }

let names =
  [
    "generator.us_per_tc"; "compiled.ns_per_inst"; "interpreted.ns_per_inst";
    "input.ns_per_word"; "model.us_per_trace"; "executor.us_per_input_run";
    "cpu.ns_per_inst"; "cache.ns_per_prime_probe"; "analyzer.us_per_class";
  ]

type t = {
  accs : (string, acc) Hashtbl.t;
  mutable samples : int;
  mutable full_fills : int;
}

let create () =
  let accs = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace accs n { ns = 0; units = 0 }) names;
  { accs; samples = 0; full_fills = 0 }

let add t name ns units =
  let a = Hashtbl.find t.accs name in
  a.ns <- a.ns + ns;
  a.units <- a.units + units

let m_input_runs = Metrics.counter "executor.input_runs"
let full_fill_words = Revizor_emu.Layout.data_pages * Revizor_emu.Layout.page_size / 8

(* Emulator and simulated-CPU costs are per architectural instruction,
   measured on the first few inputs of each sample; prime+probe is
   measured with nothing in between the two phases. *)
let emulated_inputs = 4
let emulator_reps = 8
let prime_probe_reps = 256

(* Architectural instructions one input executes (the interpreter's
   outcome list has one entry per step); 0 if the input faults. *)
let arch_insts interp template =
  match Compiled.run interp (State.copy template) with
  | outs -> List.length outs
  | exception _ -> 0

(* The emulator as the contract model drives it: [emulator_reps] model
   passes over the first inputs with the given engine. *)
let time_emulator t name cfg prog templates inputs ~insts =
  let (), ns =
    Spans.timed "replay.emulate" (fun () ->
        for _ = 1 to emulator_reps do
          ignore
            (Model.ctraces ~watchdog:cfg.Fuzzer.watchdog ~templates ~stream:`First
               cfg.Fuzzer.contract prog inputs)
        done)
  in
  add t name ns (insts * emulator_reps)

let replay_one t arena s =
  let cfg = s.cfg in
  let prng = Prng.of_state s.prng in
  let (program, inputs), ns =
    Spans.timed "replay.generate" (fun () ->
        let p = Generator.generate prng s.gen_cfg in
        (p, Input.generate_many prng ~entropy:cfg.Fuzzer.entropy ~n:s.n_inputs))
  in
  add t "generator.us_per_tc" ns 1;
  match Revizor_isa.Program.flatten program with
  | Error _ -> ()
  | Ok flat -> (
      t.samples <- t.samples + 1;
      let prog =
        Spans.with_ "replay.compile" (fun () ->
            Fuzzer.compile_with Fuzzer.Compiled flat)
      in
      let interp =
        Spans.with_ "replay.compile" (fun () ->
            Fuzzer.compile_with Fuzzer.Interpreted flat)
      in
      let plan = Input.fill_plan flat in
      let templates, ns =
        Spans.timed "replay.materialize" (fun () ->
            Arena.templates ?plan arena inputs)
      in
      let words =
        match plan with
        | Some p -> Array.length p
        | None ->
            t.full_fills <- t.full_fills + 1;
            full_fill_words
      in
      add t "input.ns_per_word" ns (words * List.length inputs);
      let k = min emulated_inputs (Array.length templates) in
      let insts = Array.init k (fun i -> arch_insts interp templates.(i)) in
      if Array.for_all (fun n -> n > 0) insts then begin
        let first = Array.sub templates 0 k
        and first_inputs = List.filteri (fun i _ -> i < k) inputs
        and total = Array.fold_left ( + ) 0 insts in
        time_emulator t "compiled.ns_per_inst" cfg prog first first_inputs ~insts:total;
        time_emulator t "interpreted.ns_per_inst" cfg interp first first_inputs
          ~insts:total
      end;
      let results, ns =
        Spans.timed "replay.model" (fun () ->
            Model.batch ~watchdog:cfg.Fuzzer.watchdog ~stream:`First
              cfg.Fuzzer.contract prog ~templates inputs)
      in
      add t "model.us_per_trace" ns (List.length inputs);
      if not (List.exists (fun (r : Model.result) -> r.Model.faulted) results)
      then begin
        let executor =
          Executor.create (Cpu.create cfg.Fuzzer.uarch) cfg.Fuzzer.executor
        in
        let runs0 = Metrics.value m_input_runs in
        let measurements, ns =
          Spans.timed "replay.execute" (fun () ->
              Executor.measure ~templates executor prog inputs)
        in
        add t "executor.us_per_input_run" ns (Metrics.value m_input_runs - runs0);
        let cpu = Cpu.create cfg.Fuzzer.uarch in
        for i = 0 to k - 1 do
          if insts.(i) > 0 then
            let st = State.copy templates.(i) in
            match Spans.timed "replay.cpu" (fun () -> Cpu.run cpu prog st) with
            | (), ns -> add t "cpu.ns_per_inst" ns insts.(i)
            | exception _ -> ()
        done;
        let threat = cfg.Fuzzer.executor.Executor.threat in
        let (), ns =
          Spans.timed "replay.prime_probe" (fun () ->
              for _ = 1 to prime_probe_reps do
                ignore (Attack.observe cpu threat ignore)
              done)
        in
        add t "cache.ns_per_prime_probe" ns prime_probe_reps;
        let ctraces =
          Array.of_list (List.map (fun (r : Model.result) -> r.Model.ctrace) results)
        in
        let htraces =
          Array.map (fun (m : Executor.measurement) -> m.Executor.htrace) measurements
        in
        let classes, ns =
          Spans.timed "replay.analyze" (fun () ->
              let classes = Analyzer.input_classes ctraces in
              ignore (Analyzer.find_violation classes htraces);
              List.length classes)
        in
        add t "analyzer.us_per_class" ns classes
      end)

let run samples =
  let t = create () in
  let arena = Arena.create () in
  Spans.with_ "replay" (fun () -> List.iter (replay_one t arena) samples);
  t

(* Raw [ns, units] pairs, so the caller can pool several processes. *)
let to_json t =
  let open Revizor_obs.Json in
  Obj
    (List.map
       (fun n ->
         let a = Hashtbl.find t.accs n in
         (n, List [ Int a.ns; Int a.units ]))
       names
    @ [ ("samples", Int t.samples); ("full_fills", Int t.full_fills) ])
