(* End-to-end tests: the full MRT pipeline against the paper's expected
   outcomes — gadget × contract × target (Table 3 shape), §6.4, §6.6,
   fuzzing detection, the pipelined engine, the false-positive filters and
   the postprocessor. *)

open Revizor_isa
open Revizor_uarch
open Revizor

let check = Alcotest.check
let tc = Alcotest.test_case

(* Alcotest testable shorthands *)
let bool = Alcotest.bool
let int = Alcotest.int
let int64 = Alcotest.int64
let string = Alcotest.string
let _ = (bool, int, int64, string)

let pipeline ?(seed = 42L) ?(n_inputs = 50) contract target (g : Gadgets.t) =
  let cfg = Target.fuzzer_config ~seed contract target in
  let cpu = Cpu.create cfg.Fuzzer.uarch in
  let executor = Executor.create cpu cfg.Fuzzer.executor in
  let prng = Prng.create ~seed:7L in
  let inputs = Input.generate_many prng ~entropy:2 ~n:n_inputs in
  match Fuzzer.check_test_case cfg executor g.Gadgets.program inputs with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s faulted: %s" g.Gadgets.name e

let expect_violation ?seed ?n_inputs ~label contract target g =
  match pipeline ?seed ?n_inputs contract target g with
  | Some v ->
      check string
        (Printf.sprintf "%s vs %s label" g.Gadgets.name (Contract.name contract))
        label v.Violation.label
  | None ->
      Alcotest.failf "%s vs %s: expected a violation" g.Gadgets.name
        (Contract.name contract)

let expect_compliant ?seed ?n_inputs contract target g =
  match pipeline ?seed ?n_inputs contract target g with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s vs %s: unexpected violation %s" g.Gadgets.name
        (Contract.name contract) (Violation.summary v)

(* --- Table 3 shape on gadgets ------------------------------------------ *)

let table3_shape_tests =
  [
    tc "V1 violates CT-SEQ, complies with CT-COND" `Quick (fun () ->
        expect_violation ~label:"V1" Contract.ct_seq Target.target5 Gadgets.spectre_v1;
        expect_violation ~label:"V1" Contract.ct_bpas Target.target5 Gadgets.spectre_v1;
        expect_compliant Contract.ct_cond Target.target5 Gadgets.spectre_v1;
        expect_compliant Contract.ct_cond_bpas Target.target5 Gadgets.spectre_v1);
    tc "V1.1 violates CT-SEQ" `Quick (fun () ->
        expect_violation ~label:"V1" Contract.ct_seq Target.target5 Gadgets.spectre_v1_1);
    tc "V4 violates CT-SEQ, complies with CT-BPAS and under the patch" `Quick
      (fun () ->
        expect_violation ~label:"V4" Contract.ct_seq Target.target2 Gadgets.spectre_v4;
        expect_compliant Contract.ct_bpas Target.target2 Gadgets.spectre_v4;
        (* Target 4 = V4 patch on *)
        expect_compliant Contract.ct_seq Target.target4 Gadgets.spectre_v4);
    tc "V1-var violates even CT-COND (latency race, §6.3)" `Quick (fun () ->
        expect_violation ~label:"V1-var" Contract.ct_cond Target.target6
          Gadgets.spectre_v1_var;
        expect_violation ~label:"V1-var" Contract.ct_cond_bpas Target.target6
          Gadgets.spectre_v1_var);
    tc "V4-var violates even CT-BPAS (latency race, §6.3)" `Quick (fun () ->
        expect_violation ~label:"V4-var" Contract.ct_bpas Target.target3
          Gadgets.spectre_v4_var);
    tc "ret2spec violates CT-SEQ with very few inputs" `Quick (fun () ->
        expect_violation ~label:"ret2spec" ~n_inputs:4 Contract.ct_seq Target.target5
          Gadgets.ret2spec);
    tc "V2 (BTB injection, extension) violates CT-SEQ" `Quick (fun () ->
        expect_violation ~label:"V2" Contract.ct_seq Target.target5
          Gadgets.spectre_v2);
    tc "port channel sees the memory-free V1 (extension)" `Quick (fun () ->
        match Experiments.port_channel_demo () with
        | [ (_, _, pp_blind); (_, _, port_sees); (_, _, pp_v1) ] ->
            check bool "prime+probe blind to v1-ports" false pp_blind;
            check bool "port channel detects v1-ports" true port_sees;
            check bool "prime+probe still sees plain v1" true pp_v1
        | _ -> Alcotest.fail "three results expected");
    tc "MDS on Skylake with assists (Target 7)" `Quick (fun () ->
        expect_violation ~label:"MDS" Contract.ct_seq Target.target7 Gadgets.mds_lfb;
        expect_violation ~label:"MDS" Contract.ct_seq Target.target7 Gadgets.mds_sb;
        expect_violation ~label:"MDS" Contract.ct_cond_bpas Target.target7
          Gadgets.mds_lfb);
    tc "MDS patch stops fill-buffer leaks (Target 8)" `Quick (fun () ->
        expect_compliant Contract.ct_seq Target.target8 Gadgets.mds_lfb;
        expect_compliant Contract.ct_seq Target.target8 Gadgets.mds_sb);
    tc "LVI-Null on the MDS-patched part only" `Quick (fun () ->
        expect_violation ~label:"LVI-Null" Contract.ct_seq Target.target8
          Gadgets.lvi_null;
        expect_compliant Contract.ct_seq Target.target7 Gadgets.lvi_null);
    tc "AR-only target is compliant (Target 1 baseline)" `Quick (fun () ->
        let cfg = Target.fuzzer_config ~seed:3L Contract.ct_seq Target.target1 in
        match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 40) with
        | Fuzzer.No_violation, stats ->
            check int "no candidates survive" 0
              (stats.Fuzzer.candidates - stats.Fuzzer.dismissed_by_swap
             - stats.Fuzzer.dismissed_by_nesting)
        | Fuzzer.Violation v, _ ->
            Alcotest.failf "false positive on Target 1: %s" (Violation.summary v));
  ]

(* --- §6.4 / §6.6 ---------------------------------------------------------- *)

let coffee_pp =
  {
    Target.target8 with
    Target.threat = Attack.prime_probe;
    subsets = [ Catalog.AR; Catalog.MEM; Catalog.CB ];
    mem_pages = 1;
  }

let assumption_tests =
  [
    tc "§6.4: speculative store eviction on Coffee Lake only" `Quick (fun () ->
        expect_violation ~label:"spec-store-eviction"
          Contract.ct_cond_no_spec_store coffee_pp Gadgets.spec_store_eviction;
        expect_compliant Contract.ct_cond_no_spec_store Target.target5
          Gadgets.spec_store_eviction;
        (* plain CT-COND permits the exposure, so no violation anywhere *)
        expect_compliant Contract.ct_cond coffee_pp Gadgets.spec_store_eviction);
    tc "§6.6: ARCH-SEQ distinguishes the STT gadgets" `Quick (fun () ->
        expect_violation ~label:"V1" Contract.ct_seq Target.target5
          Gadgets.stt_nonspeculative;
        expect_compliant Contract.arch_seq Target.target5 Gadgets.stt_nonspeculative;
        expect_violation ~label:"V1" Contract.ct_seq Target.target5
          Gadgets.stt_speculative;
        expect_violation ~label:"V1" Contract.arch_seq Target.target5
          Gadgets.stt_speculative);
    tc "experiments driver agrees (§6.4)" `Quick (fun () ->
        match Experiments.store_eviction_check () with
        | [ sky; cl ] ->
            check bool "skylake compliant" false sky.Experiments.violated;
            check bool "coffee lake violated" true cl.Experiments.violated
        | _ -> Alcotest.fail "two results expected");
    tc "experiments driver agrees (§6.6)" `Quick (fun () ->
        let r = Experiments.contract_sensitivity () in
        let find g c = List.exists (fun (g', c', v) -> g' = g && c' = c && v) r in
        check bool "6a ct-seq" true (find "stt-nonspeculative" "CT-SEQ");
        check bool "6a arch-seq" false (find "stt-nonspeculative" "ARCH-SEQ");
        check bool "6b ct-seq" true (find "stt-speculative" "CT-SEQ");
        check bool "6b arch-seq" true (find "stt-speculative" "ARCH-SEQ"));
  ]

(* --- Fuzzing ------------------------------------------------------------------ *)

let fuzz_tests =
  [
    tc "random fuzzing finds V1 on Target 5" `Slow (fun () ->
        let cfg = Target.fuzzer_config ~seed:1L Contract.ct_seq Target.target5 in
        match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 300) with
        | Fuzzer.Violation v, stats ->
            check string "label" "V1" v.Violation.label;
            check bool "within budget" true (stats.Fuzzer.test_cases <= 300)
        | Fuzzer.No_violation, _ -> Alcotest.fail "V1 not found in 300 test cases");
    tc "fuzzing is deterministic per seed" `Slow (fun () ->
        let run () =
          let cfg = Target.fuzzer_config ~seed:11L Contract.ct_seq Target.target5 in
          match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 150) with
          | Fuzzer.Violation v, stats ->
              (Some v.Violation.label, stats.Fuzzer.test_cases)
          | Fuzzer.No_violation, stats -> (None, stats.Fuzzer.test_cases)
        in
        let a = run () and b = run () in
        check bool "same outcome" true (a = b));
    tc "minimal inputs to violation are small (Table 5 shape)" `Quick (fun () ->
        match
          Experiments.minimal_inputs ~seed:21L Contract.ct_seq Target.target5
            Gadgets.ret2spec
        with
        | Some n -> check bool "tiny" true (n <= 4)
        | None -> Alcotest.fail "ret2spec not detected");
  ]

(* --- Pipelined engine: executor domains must not change results ----------------- *)

let pipelined_tests =
  [
    tc "fuzz outcome is identical for executor_domains 1/2/4" `Slow (fun () ->
        let run domains =
          let cfg =
            {
              (Target.fuzzer_config ~seed:4L Contract.ct_seq Target.target5) with
              Fuzzer.executor_domains = domains;
              pipeline_depth = 2;
            }
          in
          match Fuzzer.fuzz cfg ~budget:(Fuzzer.Test_cases 80) with
          | Fuzzer.Violation v, stats ->
              (Some v.Violation.label, stats.Fuzzer.test_cases,
               stats.Fuzzer.candidates)
          | Fuzzer.No_violation, stats ->
              (None, stats.Fuzzer.test_cases, stats.Fuzzer.candidates)
        in
        let reference = run 1 in
        check bool "executor_domains 2" true (run 2 = reference);
        check bool "executor_domains 4" true (run 4 = reference));
  ]

(* --- Postprocessor ------------------------------------------------------------- *)

let postprocessor_tests =
  [
    tc "minimization preserves the violation and shrinks the test case" `Slow
      (fun () ->
        (* pad the V1 gadget with junk, then minimize *)
        let junk =
          [
            Instruction.binop Opcode.Add (Operand.reg Reg.RDX) (Operand.imm 17);
            Instruction.binop Opcode.Xor (Operand.reg Reg.RDX) (Operand.imm 3);
            Instruction.nop;
          ]
        in
        let padded =
          Program.make
            (List.map
               (fun (b : Program.block) ->
                 if b.Program.label = "main" then
                   { b with Program.insts = junk @ b.Program.insts }
                 else b)
               Gadgets.spectre_v1.Gadgets.program.Program.blocks)
        in
        let cfg = Target.fuzzer_config ~seed:5L Contract.ct_seq Target.target5 in
        let cpu = Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        let prng = Prng.create ~seed:7L in
        let inputs = Input.generate_many prng ~entropy:2 ~n:40 in
        match Fuzzer.check_test_case cfg executor padded inputs with
        | Error e -> Alcotest.fail e
        | Ok None -> Alcotest.fail "padded gadget must violate"
        | Ok (Some v) ->
            let m = Postprocessor.minimize cfg executor v in
            check bool "fewer instructions" true
              (Program.num_insts m.Postprocessor.program < Program.num_insts padded);
            check bool "fewer inputs" true
              (List.length m.Postprocessor.inputs < List.length inputs);
            check bool "still violates" true
              (Postprocessor.still_violates cfg executor m.Postprocessor.program
                 m.Postprocessor.inputs);
            (* the fenced variant keeps the violation and contains fences *)
            check bool "fences inserted" true
              (List.exists
                 (fun i -> i.Instruction.opcode = Opcode.Lfence)
                 (Program.instructions m.Postprocessor.fenced)));
    tc "a fence in the leak region kills the violation" `Quick (fun () ->
        let fenced =
          Program.make
            (List.map
               (fun (b : Program.block) ->
                 if b.Program.label = "leak" then
                   { b with Program.insts = Instruction.lfence :: b.Program.insts }
                 else b)
               Gadgets.spectre_v1.Gadgets.program.Program.blocks)
        in
        let cfg = Target.fuzzer_config ~seed:5L Contract.ct_seq Target.target5 in
        let cpu = Cpu.create cfg.Fuzzer.uarch in
        let executor = Executor.create cpu cfg.Fuzzer.executor in
        let prng = Prng.create ~seed:7L in
        let inputs = Input.generate_many prng ~entropy:2 ~n:40 in
        match Fuzzer.check_test_case cfg executor fenced inputs with
        | Ok None -> ()
        | Ok (Some _) -> Alcotest.fail "fence should stop the leak"
        | Error e -> Alcotest.fail e);
  ]

(* --- Filters ---------------------------------------------------------------------- *)

let filter_tests =
  [
    tc "ablation: priming is required for taken-side leaks" `Quick (fun () ->
        let a = Experiments.ablation_priming () in
        check bool "with priming detects" true
          (String.length a.Experiments.with_feature > 0
          && String.sub a.Experiments.with_feature 0 9 = "violation");
        check string "without priming silent" "no violation"
          a.Experiments.without_feature);
    tc "ablation: subset equivalence avoids false positives" `Quick (fun () ->
        let a = Experiments.ablation_equivalence () in
        check string "subset" "no violation" a.Experiments.with_feature;
        check string "equality" "false violation" a.Experiments.without_feature);
    tc "ablation: noise filtering" `Quick (fun () ->
        let a = Experiments.ablation_noise_filtering () in
        check string "filtered" "0/30 false divergences" a.Experiments.with_feature;
        check bool "unfiltered sees noise" true
          (a.Experiments.without_feature <> "0/30 false divergences"));
    tc "entropy sweep: effectiveness collapses at high entropy" `Quick (fun () ->
        let sweep = Experiments.ablation_entropy () in
        let eff e = List.assoc e sweep in
        check bool "low entropy effective" true (eff 1 > 0.5);
        check bool "high entropy ineffective" true (eff 16 < eff 2));
  ]

let () =
  Alcotest.run "integration"
    [
      ("table3_shape", table3_shape_tests);
      ("assumptions", assumption_tests);
      ("fuzzing", fuzz_tests);
      ("pipelined_fuzz", pipelined_tests);
      ("postprocessor", postprocessor_tests);
      ("filters", filter_tests);
    ]
