open Revizor_isa
open Revizor_emu

type step_record = {
  s_pc : int;
  s_inst : Instruction.t;
  s_accesses : Semantics.access list;
}

type result = { ctrace : Ctrace.t; stream : step_record list; faulted : bool }

let max_nesting_depth = 4

(* ------------------------------------------------------------------ *)
(* Per-domain scratch arenas                                           *)
(* ------------------------------------------------------------------ *)

(* The batched model stage executes every input of a test case on the
   same preallocated machinery: one scratch state reset in place from
   the input's template (a flat blit), one access buffer shared by all
   raw actions, and one snapshot buffer per speculation depth for the
   exploration clauses. One arena per domain (via [Domain.DLS]) makes
   the same fast path serve the sequential loop and every domain of the
   pipelined loop without locking. *)
type arena = {
  a_scratch : State.t;
  a_blank : State.t;
      (* pristine [State.create] image: resetting scratch from it before
         [Input.apply] makes scratch reuse bit-identical to a fresh
         state even after a previous input executed stores outside the
         data area (stack pushes) or moved non-pool registers *)
  a_ab : Compiled.abuf;
  a_snaps : State.snapshot option array;  (* indexed by clause depth *)
}

let make_arena () =
  {
    a_scratch = State.create ();
    a_blank = State.create ();
    a_ab = Compiled.abuf_create ();
    a_snaps = Array.make (max_nesting_depth + 2) None;
  }

let dls_arena = Domain.DLS.new_key make_arena

let snap_save snaps depth state =
  match snaps.(depth) with
  | Some s ->
      State.snapshot_into state s;
      s
  | None ->
      let s = State.snapshot state in
      snaps.(depth) <- Some s;
      s

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

(* [run_state_in] is the single execution engine behind both the public
   per-input API and the batched stage.

   [~fuse:true] enables basic-block superinstruction execution: at any
   pc that starts a straight-line run (precomputed by [Compiled.analyze]
   as [run_len], or [nostore_len] under store-bypass contracts, so no
   speculation clause can fire inside the run), up to [budget]
   instructions are executed back-to-back through the [fused] action
   array — no clause re-checks, no per-step observation flush, and
   provably-dead flag computation elided. The watchdog still ticks and
   the budget still decrements per instruction, so fuel accounting and
   speculation windows are bit-identical to the per-step walk. A fault
   inside a fused block truncates the access buffer to the last
   completed instruction (the per-step engine never records a faulting
   instruction's accesses) and stops exactly like the per-step fault
   clause.

   [~record_stream:false] skips materializing per-step access lists for
   the instruction stream — the fuzzer only reads the stream of the
   first input (for coverage patterns), so all other inputs run
   allocation-free. Architectural steps of a stream-recorded input are
   executed per-step (fusion stays on inside speculative explorations,
   whose steps are never in the stream). *)
let run_state_in ~arena ~fuse ~record_stream ~max_steps ~watchdog
    (contract : Contract.t) prog (state : State.t) =
  let code_len = Compiled.length prog in
  let descs = prog.Compiled.descs in
  let raws = prog.Compiled.raws in
  let fused = prog.Compiled.fused in
  let has_cond = Contract.has_cond contract in
  let has_bpas = Contract.has_bpas contract in
  let fuse_len =
    if has_bpas then prog.Compiled.nostore_len else prog.Compiled.run_len
  in
  let arch_values = contract.Contract.obs = Contract.Arch in
  let expose_stores = contract.Contract.expose_speculative_stores in
  let pc_obs =
    match contract.Contract.obs with
    | Contract.Ct | Contract.Arch -> true
    | Contract.Mem -> false
  in
  let ab = arena.a_ab in
  let snaps = arena.a_snaps in
  (* Watchdog fuel: counts every walked instruction including nested
     speculative re-explorations, which is exactly the quantity that
     blows up on pathological programs while [max_steps] (per-walk) does
     not. *)
  let fuel = Watchdog.start watchdog in
  let obs = ref [] in
  let stream = ref [] in
  let faulted = ref false in
  let emit o = obs := o :: !obs in
  let record_control next = if pc_obs then emit (Ctrace.Pc next) in
  (* Flush buffer entries [0, hi) into the observation list, matching
     the per-access record order of the reference walk. *)
  let record_abuf ~speculative hi =
    for k = 0 to hi - 1 do
      if ab.Compiled.ab_store.(k) then begin
        if (not speculative) || expose_stores then
          emit (Ctrace.Addr ab.Compiled.ab_addr.(k))
      end
      else begin
        emit (Ctrace.Addr ab.Compiled.ab_addr.(k));
        if arch_values then emit (Ctrace.Value ab.Compiled.ab_value.(k))
      end
    done
  in
  (* [walk] executes up to [budget] instructions from the current state.
     [depth] counts nested explorations: 0 is the architectural path. *)
  let rec walk ~depth budget =
    let speculative = depth > 0 in
    let budget = ref budget in
    let stop = ref false in
    while (not !stop) && !budget > 0 && state.State.pc < code_len do
      let pc = state.State.pc in
      let fl =
        if fuse && (speculative || not record_stream) then fuse_len.(pc) else 0
      in
      if fl >= 2 then begin
        (* Fused straight-line block. *)
        let n = if fl < !budget then fl else !budget in
        Compiled.abuf_clear ab;
        let mark = ref 0 in
        match
          for j = 0 to n - 1 do
            decr budget;
            Watchdog.tick fuel;
            mark := ab.Compiled.ab_len;
            fused.(pc + j) state ab
          done
        with
        | () -> record_abuf ~speculative ab.Compiled.ab_len
        | exception (Semantics.Division_fault | Memory.Fault _) ->
            record_abuf ~speculative !mark;
            if not speculative then faulted := true;
            stop := true
      end
      else begin
        decr budget;
        Watchdog.tick fuel;
        let d = descs.(pc) in
        if d.Compiled.d_serializing then
          if speculative then stop := true
          else state.State.pc <- pc + 1
        else begin
          let may_nest =
            depth = 0 || (contract.Contract.nesting && depth < max_nesting_depth)
          in
          (* Execution clause: conditional-branch misprediction. *)
          (match d.Compiled.d_cond with
          | Some c when has_cond && may_nest ->
              let actual = Flags.eval_cond state.State.flags c in
              let inverted =
                if actual then pc + 1 else Compiled.target prog pc
              in
              let snap = snap_save snaps depth state in
              state.State.pc <- inverted;
              record_control inverted;
              walk ~depth:(depth + 1)
                (min !budget contract.Contract.speculation_window);
              State.restore state snap
          | Some _ | None -> ());
          (* Execution clause: store bypass (the store is skipped and
             execution continues speculatively). *)
          (if has_bpas && may_nest && d.Compiled.d_stores then
             match d.Compiled.d_mem with
             | Some mr ->
                 let addr = mr.Compiled.mr_addr state in
                 let w = mr.Compiled.mr_width in
                 let snap = snap_save snaps depth state in
                 (try
                    let old = Memory.read state.State.mem ~addr w in
                    Compiled.abuf_clear ab;
                    raws.(pc) state ab;
                    (* Undo the write: the store is bypassed. *)
                    Memory.write state.State.mem ~addr w old;
                    for k = 0 to ab.Compiled.ab_len - 1 do
                      if not ab.Compiled.ab_store.(k) then begin
                        emit (Ctrace.Addr ab.Compiled.ab_addr.(k));
                        if arch_values then
                          emit (Ctrace.Value ab.Compiled.ab_value.(k))
                      end
                    done;
                    walk ~depth:(depth + 1)
                      (min !budget contract.Contract.speculation_window)
                  with Semantics.Division_fault | Memory.Fault _ -> ());
                 State.restore state snap
             | None -> ());
          (* Architectural (or in-exploration) step. *)
          Compiled.abuf_clear ab;
          match raws.(pc) state ab with
          | () ->
              record_abuf ~speculative ab.Compiled.ab_len;
              if d.Compiled.d_control_flow then record_control state.State.pc;
              if record_stream && not speculative then
                stream :=
                  {
                    s_pc = pc;
                    s_inst = d.Compiled.d_inst;
                    s_accesses = Compiled.abuf_accesses ab;
                  }
                  :: !stream
          | exception (Semantics.Division_fault | Memory.Fault _) ->
              if speculative then stop := true
              else begin
                faulted := true;
                stop := true
              end
        end
      end
    done
  in
  walk ~depth:0 max_steps;
  { ctrace = List.rev !obs; stream = List.rev !stream; faulted = !faulted }

let run_state ?(max_steps = 4096) ?(watchdog = Watchdog.default)
    (contract : Contract.t) prog (state : State.t) =
  (* The public per-input walk stays unfused: its final state (including
     flags elided by the fused variants) is part of the interface. *)
  let arena = Domain.DLS.get dls_arena in
  run_state_in ~arena ~fuse:false ~record_stream:true ~max_steps ~watchdog
    contract prog state

let run ?max_steps ?watchdog contract prog input =
  run_state ?max_steps ?watchdog contract prog (Input.to_state input)

(* ------------------------------------------------------------------ *)
(* Batched execution                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-input model cost. The input counter stays exact (it feeds the
   dashboards and the deterministic-snapshot test); the clock reads and
   histogram sample are taken for one input in 16, by input index, so
   the instrumentation of the hot loop is allocation-free and
   deterministic across domain counts. *)
let m_inputs = Revizor_obs.Metrics.counter "model.inputs"
let m_total_ns = Revizor_obs.Metrics.counter "model.input_total_ns"
let h_input_ns = Revizor_obs.Metrics.histogram "model.input_ns"

(* Fault point for the model stage: an armed schedule makes a contract
   trace blow up like a real model bug would, so the fuzz loop's
   absorb-and-record path is exercised by tests. *)
let fp_model = Revizor_obs.Faultpoint.point "model.ctrace"

let timed_trace ~arena ~idx ~record_stream ~max_steps ~watchdog contract prog
    state =
  Revizor_obs.Faultpoint.fire fp_model;
  Revizor_obs.Metrics.incr m_inputs;
  if idx land 15 = 0 then begin
    let t0 = Revizor_obs.Clock.now_ns () in
    let r =
      run_state_in ~arena ~fuse:true ~record_stream ~max_steps ~watchdog
        contract prog state
    in
    let dt = Revizor_obs.Clock.now_ns () - t0 in
    Revizor_obs.Metrics.add m_total_ns dt;
    Revizor_obs.Metrics.observe h_input_ns dt;
    r
  end
  else
    run_state_in ~arena ~fuse:true ~record_stream ~max_steps ~watchdog contract
      prog state

(* Reset the arena scratch to exactly the state [Input.to_state] would
   build: template blit when available, else pristine blit + fill. *)
let reset_scratch ~arena ~templates input i =
  let scratch = arena.a_scratch in
  (match templates with
  | Some tpl -> State.copy_into tpl.(i) ~dst:scratch
  | None ->
      State.copy_into arena.a_blank ~dst:scratch;
      (* The blank blit restored all-zero data memory. *)
      Input.apply ~data_hi_zero:true input scratch);
  scratch

let batch ?(max_steps = 4096) ?(watchdog = Watchdog.default) ?(stream = `All)
    contract prog =
  (* Specialize the per-test-case closure once: contract dispatch and
     fused-run metadata are resolved here, and the closure is then
     invoked once with the full input set. *)
  let record_stream = match stream with `All -> fun _ -> true | `First -> fun i -> i = 0 in
  fun ?templates inputs ->
    let arena = Domain.DLS.get dls_arena in
    List.mapi
      (fun i input ->
        let scratch = reset_scratch ~arena ~templates input i in
        timed_trace ~arena ~idx:i ~record_stream:(record_stream i) ~max_steps
          ~watchdog contract prog scratch)
      inputs

let ctraces ?max_steps ?watchdog ?templates ?stream contract prog inputs =
  (batch ?max_steps ?watchdog ?stream contract prog) ?templates inputs
