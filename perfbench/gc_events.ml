(* GC time from the OCaml 5 runtime's own event ring ([runtime_events]),
   so the traced run can say how much of the fuzz loop's residual is the
   collector. Every runtime phase nests inside a top-level GC phase on
   the (single) domain, so the time spent at nesting depth > 0 is the
   time the mutator was stopped for the GC. *)

let total_ns = ref 0
let lost = ref 0
let depth = ref 0
let opened_at = ref 0L
let cursor = ref None

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if phase <> Runtime_events.EV_DOMAIN_CONDITION_WAIT then begin
        if !depth = 0 then opened_at := Runtime_events.Timestamp.to_int64 ts;
        incr depth
      end)
    ~runtime_end:(fun _ ts phase ->
      if phase <> Runtime_events.EV_DOMAIN_CONDITION_WAIT && !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          total_ns :=
            !total_ns
            + Int64.to_int
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !opened_at)
      end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

(* The ring file goes to OCAML_RUNTIME_EVENTS_DIR (the caller points it
   inside the benchmark's work directory) and is removed at exit. *)
let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let gc_ns () = poll (); !total_ns
