(* The benchmark's clocks.

   Single-domain workloads are timed on the process CPU clock (user +
   sys), which on an idle core equals wall time but does not count time
   the process spent descheduled behind a neighbour. [cpu_tree] adds the
   CPU time of every child the process has reaped, which is how the
   fleet workload charges its forked workers. [Unix.times] reads
   [getrusage], so both clocks resolve microseconds. *)

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let cpu_tree () = cpu_self () +. cpu_children ()

let wall () = float_of_int (Revizor_obs.Clock.now_ns ()) *. 1e-9
