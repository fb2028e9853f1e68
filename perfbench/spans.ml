(* Spans recorded by the benchmark around its calls into the program's
   layers, for the traced run only. Each span has a name, start and end
   (monotonic ns), its parent span (0 for a root) and the run id. They
   are kept in memory and written out once, when the process ends. *)

type t = {
  id : int;
  parent : int;
  name : string;
  start_ns : int;
  mutable end_ns : int;
}

let enabled = ref false
let run_id = ref ""
let finished : t list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 1

let enable ~run = enabled := true; run_id := run

(* [timed name f] runs [f] and returns its result with the elapsed
   monotonic nanoseconds; when tracing is on it also records a span. *)
let timed name f =
  let start_ns = Revizor_obs.Clock.now_ns () in
  if not !enabled then begin
    let r = f () in
    (r, Revizor_obs.Clock.now_ns () - start_ns)
  end
  else begin
    let parent = match !open_stack with p :: _ -> p | [] -> 0 in
    let sp = { id = !next_id; parent; name; start_ns; end_ns = start_ns } in
    incr next_id;
    open_stack := sp.id :: !open_stack;
    let close () =
      sp.end_ns <- Revizor_obs.Clock.now_ns ();
      open_stack := List.tl !open_stack;
      finished := sp :: !finished
    in
    let r = Fun.protect ~finally:close f in
    (r, sp.end_ns - sp.start_ns)
  end

let with_ name f = fst (timed name f)
let count () = List.length !finished

let to_json sp =
  Revizor_obs.Json.(
    Obj
      [
        ("run", String !run_id);
        ("id", Int sp.id);
        ("parent", Int sp.parent);
        ("name", String sp.name);
        ("start_ns", Int sp.start_ns);
        ("end_ns", Int sp.end_ns);
      ])

let write path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      output_string oc (Revizor_obs.Json.to_string (to_json sp));
      output_char oc '\n')
    (List.rev !finished);
  close_out oc
