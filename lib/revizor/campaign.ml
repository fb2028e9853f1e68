open Revizor_uarch
module Json = Revizor_obs.Json

let schema = "revizor.checkpoint.v1"
let version = 1

(* FNV-1a over the canonical configuration rendering: cheap, stable
   across runs (no Hashtbl.hash involvement), and any change to a field
   that influences the deterministic result stream changes the digest. *)
let fnv1a64 (s : string) =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let subset_names subsets =
  String.concat "+" (List.map Revizor_isa.Catalog.subset_to_string subsets)

(* Canonical rendering of every config field that shapes the result
   stream. [executor_domains] and [pipeline_depth] are deliberately
   absent: the pipelined loop commits in generation order with
   per-test-case keyed noise/fault draws, so results are identical for
   every pool size and overlap depth (asserted by the test suite) and a
   checkpoint taken with [--executor-domains 4] may be resumed with
   [--executor-domains 1] on a smaller machine. The noise seed, by
   contrast, is rendered: keyed draws make it part of the deterministic
   result stream. *)
let canonical (c : Fuzzer.config) =
  let e = c.Fuzzer.executor in
  let g = c.Fuzzer.gen_cfg in
  let w = c.Fuzzer.watchdog in
  Printf.sprintf
    "contract=%s;uarch=%s;threat=%s;warmup=%d;reps=%d;outlier=%d;noise=%s;\
     adaptive=%s;exec_max_steps=%d;reset_between=%b;gen=%d,%d,%d,%d,%d,%s;\
     n_inputs=%d;entropy=%d;round_length=%d;seed=0x%Lx;engine=%s;\
     watchdog=%d,%s"
    (Contract.name c.Fuzzer.contract)
    c.Fuzzer.uarch.Uarch_config.name
    (Attack.threat_to_string e.Executor.threat)
    e.Executor.warmup_rounds e.Executor.measurement_reps e.Executor.outlier_min
    (match e.Executor.noise with
    | None -> "none"
    | Some n ->
        Printf.sprintf "%g@0x%Lx" n.Executor.flip_probability n.Executor.seed)
    (match e.Executor.adaptive with
    | None -> "none"
    | Some a ->
        Printf.sprintf "%g,%d" a.Executor.reject_ratio a.Executor.max_total_reps)
    e.Executor.max_steps e.Executor.reset_between_inputs g.Generator.n_insts
    g.Generator.n_blocks g.Generator.n_functions g.Generator.max_mem_accesses
    g.Generator.mem_pages
    (subset_names g.Generator.subsets)
    c.Fuzzer.n_inputs c.Fuzzer.entropy c.Fuzzer.round_length c.Fuzzer.seed
    (match c.Fuzzer.engine with
    | Fuzzer.Compiled -> "compiled"
    | Fuzzer.Interpreted -> "interpreted")
    w.Watchdog.max_model_steps
    (match w.Watchdog.max_input_millis with
    | None -> "none"
    | Some ms -> string_of_int ms)

let fingerprint c = Printf.sprintf "%016Lx" (fnv1a64 (canonical c))

let gen_cfg_to_json (g : Generator.cfg) =
  Json.Obj
    [
      ("n_insts", Json.Int g.Generator.n_insts);
      ("n_blocks", Json.Int g.Generator.n_blocks);
      ("n_functions", Json.Int g.Generator.n_functions);
      ("max_mem_accesses", Json.Int g.Generator.max_mem_accesses);
      ( "subsets",
        Json.List
          (List.map
             (fun s ->
               Json.String (Revizor_isa.Catalog.subset_to_string s))
             g.Generator.subsets) );
      ("mem_pages", Json.Int g.Generator.mem_pages);
    ]

let gen_cfg_of_json j =
  let ( let* ) = Result.bind in
  let int k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "checkpoint gen_cfg: missing %s" k)
  in
  let* n_insts = int "n_insts" in
  let* n_blocks = int "n_blocks" in
  let* n_functions = int "n_functions" in
  let* max_mem_accesses = int "max_mem_accesses" in
  let* mem_pages = int "mem_pages" in
  let* subsets =
    match Json.member "subsets" j with
    | Some (Json.List ss) ->
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            match Option.map Revizor_isa.Catalog.subset_of_string (Json.to_str s) with
            | Some (Ok sub) -> Ok (sub :: acc)
            | Some (Error e) -> Error e
            | None -> Error "checkpoint gen_cfg: non-string subset")
          (Ok []) ss
        |> Result.map List.rev
    | _ -> Error "checkpoint gen_cfg: missing subsets"
  in
  Ok
    {
      Generator.n_insts;
      n_blocks;
      n_functions;
      max_mem_accesses;
      subsets;
      mem_pages;
    }

let hex64 v = Json.String (Printf.sprintf "0x%Lx" v)

let parse_hex64 = function
  | Json.String s -> (
      match Int64.of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "checkpoint: bad int64 %S" s))
  | _ -> Error "checkpoint: expected hex string"

let to_json config (s : Fuzzer.snapshot) =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("version", Json.Int version);
      ("fingerprint", Json.String (fingerprint config));
      ("prng", hex64 s.Fuzzer.sn_prng);
      ("gen_cfg", gen_cfg_to_json s.Fuzzer.sn_gen_cfg);
      ("n_inputs", Json.Int s.Fuzzer.sn_n_inputs);
      ("in_round", Json.Int s.Fuzzer.sn_in_round);
      ("combos_at_round_start", Json.Int s.Fuzzer.sn_combos_at_round_start);
      ("stats", Fuzzer.stats_to_json s.Fuzzer.sn_stats);
      ("coverage", Coverage.to_json s.Fuzzer.sn_coverage);
      ("ucoverage", Ucoverage.to_json s.Fuzzer.sn_ucoverage);
    ]

let of_json config j =
  let ( let* ) = Result.bind in
  let* () =
    match Option.bind (Json.member "schema" j) Json.to_str with
    | Some s when s = schema -> Ok ()
    | Some s -> Error (Printf.sprintf "checkpoint: unknown schema %S" s)
    | None -> Error "checkpoint: missing schema"
  in
  let* () =
    match Option.bind (Json.member "version" j) Json.to_int with
    | Some v when v = version -> Ok ()
    | Some v -> Error (Printf.sprintf "checkpoint: unsupported version %d" v)
    | None -> Error "checkpoint: missing version"
  in
  let* () =
    match Option.bind (Json.member "fingerprint" j) Json.to_str with
    | Some fp when fp = fingerprint config -> Ok ()
    | Some fp ->
        Error
          (Printf.sprintf
             "checkpoint: config fingerprint mismatch (checkpoint %s, \
              current config %s) — resume with the same configuration it \
              was taken under"
             fp (fingerprint config))
    | None -> Error "checkpoint: missing fingerprint"
  in
  let* sn_prng =
    match Json.member "prng" j with
    | Some v -> parse_hex64 v
    | None -> Error "checkpoint: missing prng"
  in
  let* sn_gen_cfg =
    match Json.member "gen_cfg" j with
    | Some g -> gen_cfg_of_json g
    | None -> Error "checkpoint: missing gen_cfg"
  in
  let int k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "checkpoint: missing %s" k)
  in
  let* sn_n_inputs = int "n_inputs" in
  let* sn_in_round = int "in_round" in
  let* sn_combos_at_round_start = int "combos_at_round_start" in
  let* sn_stats =
    match Json.member "stats" j with
    | Some s -> Fuzzer.stats_of_json s
    | None -> Error "checkpoint: missing stats"
  in
  let* sn_coverage =
    match Json.member "coverage" j with
    | Some c -> Coverage.of_json c
    | None -> Error "checkpoint: missing coverage"
  in
  (* The atlas section is additive: checkpoints written before it existed
     still load (with an empty atlas), and the checkpoint version stays
     at 1 because the result-bearing state is unchanged. *)
  let* sn_ucoverage =
    match Json.member "ucoverage" j with
    | Some u -> Ucoverage.of_json u
    | None -> Ok (Ucoverage.create ())
  in
  Ok
    {
      Fuzzer.sn_prng;
      sn_gen_cfg;
      sn_n_inputs;
      sn_in_round;
      sn_combos_at_round_start;
      sn_stats;
      sn_coverage;
      sn_ucoverage;
    }

let save ~path config snapshot =
  Revizor_obs.Atomic_file.write path
    (Json.to_string_pretty (to_json config snapshot) ^ "\n")

let load ~path config =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (Printf.sprintf "checkpoint: %s" e)
  | contents -> (
      match Json.parse contents with
      | Error e -> Error (Printf.sprintf "checkpoint: parse error: %s" e)
      | Ok j -> of_json config j)
