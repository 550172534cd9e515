(* The repository benchmark.

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   runs one workload and prints, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, measured with tracing off; with
   --trace 1 the same workload runs once more with [Support.Trace]
   recording and the metrics are the per-layer ones.  The lines before
   the JSON repeat every metric with its unit, the seed and the sample
   counts.  NOTES.md beside this file records why each workload and
   metric was chosen.

   Workloads:
     compile-proof  cold [Regalloc.Driver.compile] of Kasumi, AES, QoS
     rebuild-edit   seeded one-line edits through [compile_incremental]
     forward-imix   five programs on a 6 x 4 [Ixp.Chip] under imix

   Every workload also compiles cold and drives the chip (as set-up or
   as a fixed probe), so every end-to-end metric is measured on every
   workload.  The benchmark only calls the library's public entry
   points and reads the spans and counters the library already records.

   Every cold compile, and every incremental session, starts from a
   fresh identifier counter ([Support.Ident.reset]), as a fresh
   `novac compile` process does: the branch-and-bound search path
   depends on identifier stamps, so without it the same program solves
   with a different node count depending on what the process compiled
   before. *)

open Programs
module D = Regalloc.Driver
module Trace = Support.Trace
module Metrics = Support.Metrics

let now = Support.Monotonic.now_s

(* ---------------- statistics ---------------- *)

let fsum = List.fold_left ( +. ) 0.
let isum = List.fold_left ( + ) 0

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank *)
let percentile xs q =
  match xs with
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length a in
      let k = int_of_float (ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let geomean xs =
  exp (fsum (List.map log xs) /. float_of_int (max 1 (List.length xs)))

let ratio a b = if b = 0. then 0. else a /. b

(* ---------------- failures ---------------- *)

let attempted = ref 0
let failed = ref 0

(* Count one operation; a failed one is reported on stderr. *)
let expect ok fmt =
  Printf.ksprintf
    (fun what ->
      incr attempted;
      if not ok then begin
        incr failed;
        prerr_endline ("perfbench: FAILED " ^ what)
      end)
    fmt

(* ---------------- builds ---------------- *)

type build = {
  b_program : string;
  b_latency : float; (* seconds *)
  b_stats : D.stats;
  b_points : int;
  b_temps : int;
  b_live : bool; (* the solver ran, rather than replaying a cached solve *)
  b_report : D.cache_report option; (* incremental builds only *)
}

let build_of name latency (c : D.compiled) report =
  let replayed =
    match report with Some r -> r.D.solve_hit | None -> false
  in
  {
    b_program = name;
    b_latency = latency;
    b_stats = c.D.stats;
    b_points = Array.length c.D.mg.Regalloc.Modelgen.points;
    b_temps = Array.length c.D.mg.Regalloc.Modelgen.temps;
    b_live = (not replayed) && c.D.stats.D.mip <> None;
    b_report = report;
  }

let file p = p.name ^ ".nova"

(* A compile that raises or falls back to the baseline allocator fails;
   [proof] also fails one that stops at a budget without a proof. *)
let expect_outcome ~proof p (c : D.compiled) =
  let outcome = c.D.stats.D.solver_outcome in
  expect
    (match outcome with
    | D.Outcome_optimal -> true
    | D.Outcome_incumbent -> not proof
    | D.Outcome_heuristic | D.Outcome_fallback -> false)
    "%s: compile ended with outcome %s" p.name
    (D.solver_outcome_to_string outcome)

let guarded p what f =
  match f () with
  | v -> Some v
  | exception e ->
      expect false "%s: %s raised %s" p.name what (Printexc.to_string e);
      None

(* Cold compile, as a fresh compiler process runs it. *)
let cold_compile ~proof p =
  Support.Ident.reset ();
  let t0 = now () in
  guarded p "compile" (fun () ->
      Trace.with_span "perfbench.compile" (fun () ->
          D.compile ~file:(file p) p.source))
  |> Option.map (fun c ->
         let dt = now () -. t0 in
         expect_outcome ~proof p c;
         (c, build_of p.name dt c None))

let incremental_compile ~store p source =
  let t0 = now () in
  guarded p "compile_incremental" (fun () ->
      Trace.with_span "perfbench.compile_incremental" (fun () ->
          D.compile_incremental ~store ~file:(file p) source))
  |> Option.map (fun (c, r) ->
         let dt = now () -. t0 in
         expect_outcome ~proof:false p c;
         (c, build_of p.name dt c (Some r)))

(* ---------------- traffic and reference checks ---------------- *)

(* A packet image: the SDRAM words a program's packet writer stores,
   built once so the timed chip loop only copies them. *)
type image = { idx : int array; vals : int array }

type traffic = {
  seed : int;
  images : image array; (* by packet size in bytes *)
  refs : (int * expected) list;
      (* every payload size the traffic carries, with its reference *)
}

let gen_config p ~seed ~offered =
  {
    Ixp.Pktgen.default_config with
    Ixp.Pktgen.profile = Ixp.Pktgen.Imix;
    offered_mpps = offered;
    seed;
    count = p.packets;
    size_align = p.align;
  }

let payload_len p size = max p.align (size / p.align * p.align)

let traffic p ~seed =
  let empty = { idx = [||]; vals = [||] } in
  let images = Array.make (Ixp.Pktgen.max_payload_bytes + 1) empty in
  let lens = ref [] in
  let v = Ixp.Pktgen.make_view () in
  List.iter
    (fun offered ->
      let g = Ixp.Pktgen.create (gen_config p ~seed ~offered) in
      while Ixp.Pktgen.next_into g v do
        let size = v.Ixp.Pktgen.v_size in
        if images.(size) == empty then begin
          let len = payload_len p size in
          let words = ref [] in
          p.write_packet (fun w x -> words := (w, x) :: !words) ~payload_len:len;
          let ws = Array.of_list (List.rev !words) in
          images.(size) <- { idx = Array.map fst ws; vals = Array.map snd ws };
          if not (List.mem len !lens) then lens := len :: !lens
        end
      done)
    [ p.saturating_mpps; p.half_mpps ];
  let refs = List.map (fun len -> (len, p.reference ~payload_len:len)) !lens in
  { seed; images; refs = List.sort compare refs }

(* Each program gets its own packet stream from the workload seed. *)
let traffic_seed ~seed i = (seed * 97) + i

(* Run [c] once per payload size on the single-engine simulator and
   compare with the OCaml reference. *)
let check ?(refs = fun (t : traffic) -> t.refs) ~label p (c : D.compiled)
    (t : traffic) =
  Trace.with_span "perfbench.check" @@ fun () ->
  List.iter
    (fun (payload_len, expected) ->
      let ok =
        match
          D.simulate
            ~init:(fun sim ->
              p.load_tables (Ixp.Simulator.shared_memory sim);
              let sd = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
              p.write_packet (poke sd Ixp.Insn.Sdram) ~payload_len)
            c
        with
        | _, results, sim ->
            matches expected
              (Ixp.Simulator.sdram_of_thread sim ~thread:0)
              results.(0)
        | exception _ -> false
      in
      expect ok "%s: %s output differs from the reference at payload %d"
        label p.name payload_len)
    (refs t)

(* ---------------- chip runs ---------------- *)

let deliver (t : traffic) : Ixp.Chip.deliver =
 fun chip ~engine ~thread ~seq:_ ~size ~words:_ ~payload:_ ->
  let sd = Ixp.Simulator.sdram_of_thread (Ixp.Chip.engine chip engine) ~thread in
  let img = t.images.(size) in
  let idx = img.idx and vals = img.vals in
  for k = 0 to Array.length idx - 1 do
    Ixp.Memory.poke sd Ixp.Insn.Sdram idx.(k) vals.(k)
  done

type chip_run = {
  r_half : bool; (* half-capacity load, else saturating *)
  r_report : Ixp.Chip.report;
  r_insns : int;
  r_drive_s : float;
  r_minor_words : float;
}

let chip_run p (c : D.compiled) (t : traffic) ~half =
  let offered = if half then p.half_mpps else p.saturating_mpps in
  let chip =
    Trace.with_span "perfbench.chip.create" (fun () ->
        Ixp.Chip.create c.D.physical)
  in
  p.load_tables (Ixp.Chip.shared_memory chip);
  let gen = Ixp.Pktgen.create (gen_config p ~seed:t.seed ~offered) in
  Trace.with_span "perfbench.chip.prepare" (fun () ->
      Ixp.Chip.prepare chip ~ports:1 ~expected:p.packets);
  let deliver = deliver t in
  let ts_us = Trace.now_us () in
  let drive_s, minor_words =
    Layers.without_recording (fun () ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        Ixp.Chip.drive chip ~deliver gen;
        let t1 = now () in
        (t1 -. t0, Gc.minor_words () -. w0))
  in
  Trace.complete ~ts_us ~dur_us:(drive_s *. 1e6) "perfbench.chip.drive";
  let report =
    Trace.with_span "perfbench.chip.finish" (fun () -> Ixp.Chip.finish chip)
  in
  let insns = ref 0 in
  for e = 0 to report.Ixp.Chip.r_config.Ixp.Chip.engines - 1 do
    insns := !insns + Ixp.Simulator.insns_executed (Ixp.Chip.engine chip e)
  done;
  if half then
    expect
      (Ixp.Chip.dropped report = 0
      && report.Ixp.Chip.completed = report.Ixp.Chip.generated)
      "%s: %d of %d packets dropped at the half-capacity load" p.name
      (Ixp.Chip.dropped report) report.Ixp.Chip.generated
  else
    expect (report.Ixp.Chip.completed > 0)
      "%s: no packet completed at the saturating load" p.name;
  {
    r_half = half;
    r_report = report;
    r_insns = !insns;
    r_drive_s = drive_s;
    r_minor_words = minor_words;
  }

(* [short]: one unit of work after a single set-up (the untraced half of
   the self-check); otherwise set up [setup_reps] times and measure for
   [seconds]. *)
type mode = { seed : int; seconds : float; setup_reps : int; short : bool }

type sweep = {
  runs : chip_run list;
  mpps : float; (* geomean over programs, saturating load *)
  p99 : float; (* geomean over programs, half-capacity load *)
  s_insns : int;
  s_drive_s : float;
}

(* Every program at both loads. *)
let sweep targets =
  (* A chip holds ~60 MB of simulated memory: collect each dead one
     before the next is built, rather than let a sweep's worth pile up. *)
  let run p c t ~half =
    Gc.full_major ();
    chip_run p c t ~half
  in
  let runs =
    List.concat_map
      (fun (p, c, t) -> [ run p c t ~half:false; run p c t ~half:true ])
      targets
  in
  let sat = List.filter (fun r -> not r.r_half) runs
  and half = List.filter (fun r -> r.r_half) runs in
  {
    runs;
    mpps = geomean (List.map (fun r -> Ixp.Chip.achieved_mpps r.r_report) sat);
    p99 =
      geomean
        (List.map
           (fun r -> float_of_int (Ixp.Chip.latency_percentile r.r_report 0.99))
           half);
    s_insns = isum (List.map (fun r -> r.r_insns) runs);
    s_drive_s = fsum (List.map (fun r -> r.r_drive_s) runs);
  }

let sim_minsn_per_s s = float_of_int s.s_insns /. s.s_drive_s /. 1e6

let expect_repeat first s =
  expect
    (s.mpps = first.mpps && s.p99 = first.p99 && s.s_insns = first.s_insns)
    "a repeated sweep of the same traffic gave different simulated results"

(* ---------------- passes ---------------- *)

(* The numbers the self-check requires to be identical between the
   untraced and the traced pass, all taken from the pass's first unit of
   work: its set-up, its first compile round / edit round / sweep, and
   its chip sweep. *)
type det = {
  move_cost : float;
  fwd_mpps : float;
  fwd_p99 : float;
  nodes : int;
  iters : int;
  lu : int;
  insns : int;
}

type pass = {
  setup_s : float list;
  compile_s : float list; (* one sum of cold compile times per round *)
  rebuilds : build list; (* the builds rebuild_ms_* is taken over *)
  builds : build list; (* every build of the pass *)
  sweeps : sweep list;
  det : det;
  unit_wall : float; (* wall time of the first unit's timed part *)
  heap_mb : float; (* heap high-water mark when the first unit ends *)
}

let m_lu = Metrics.counter "lp.lu.refactorizations"

(* The process's heap high-water mark.  Read when the first unit of work
   ends: the allocations up to there repeat exactly for a seed, so the
   reading does too, while later rounds add only as many more as the
   host's speed lets fit. *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The sweeps of a chip probe: a single sweep's host time is too short
   to time the simulator steadily, so a measuring pass repeats it.  A
   repeated sweep must reproduce the first exactly. *)
let probe_sweeps mode targets =
  let first = sweep targets in
  let rest = if mode.short then [] else [ sweep targets ] in
  List.iter (expect_repeat first) rest;
  first :: rest

(* [priced]: the builds whose allocations [move_cost] sums; [solved]:
   the builds whose solver work is counted. *)
let det_of ~priced ~solved ~lu (s : sweep) =
  let live = List.filter (fun b -> b.b_live) solved in
  let mip f =
    isum
      (List.map
         (fun b -> match b.b_stats.D.mip with Some m -> f m | None -> 0)
         live)
  in
  {
    move_cost = fsum (List.map (fun b -> b.b_stats.D.weighted_move_cost) priced);
    fwd_mpps = s.mpps;
    fwd_p99 = s.p99;
    nodes = mip (fun m -> m.Lp.Mip.nodes);
    iters = mip (fun m -> m.Lp.Mip.simplex_iterations);
    lu;
    insns = s.s_insns;
  }

(* Repeat [setup]: every repetition builds the same state, and the
   timed part runs on the last one.  Returns the states in order, their
   durations and the LU counter at the start of the last. *)
let repeat_setup mode setup =
  let rec go k states times =
    let lu0 = Metrics.counter_value m_lu in
    let t0 = now () in
    let st = setup () in
    let dt = now () -. t0 in
    if k >= mode.setup_reps then (List.rev (st :: states), List.rev (dt :: times), lu0)
    else go (k + 1) (st :: states) (dt :: times)
  in
  go 1 [] []

let last xs = List.hd (List.rev xs)

(* Rounds of [f] until [seconds] would be exceeded: always one, and
   another only while the last one still fits. *)
let timed_rounds mode f =
  let t0 = now () in
  let rec go acc =
    let r0 = now () in
    let r = f (List.length acc) in
    let last = now () -. r0 in
    let acc = r :: acc in
    if mode.short || now () -. t0 +. last > mode.seconds then List.rev acc
    else go acc
  in
  go []

(* compile-proof: cold compiles to a proof, plus a chip probe of the
   proven code. *)
let compile_proof mode =
  let progs = [ kasumi; aes; qos ] in
  let setup () =
    List.mapi (fun i p -> (p, traffic p ~seed:(traffic_seed ~seed:mode.seed i))) progs
  in
  let states, setup_s, _ = repeat_setup mode setup in
  let targets = last states in
  let lu0 = Metrics.counter_value m_lu in
  let rounds =
    timed_rounds mode (fun _ ->
        List.filter_map
          (fun (p, t) ->
            Option.map (fun (c, b) -> (p, c, t, b)) (cold_compile ~proof:true p))
          targets)
  in
  let lu = Metrics.counter_value m_lu - lu0 in
  let first = List.hd rounds in
  List.iter (fun (p, c, t, _) -> check ~label:"compile-proof" p c t) first;
  let probes = probe_sweeps mode (List.map (fun (p, c, t, _) -> (p, c, t)) first) in
  let round_builds r = List.map (fun (_, _, _, b) -> b) r in
  let round_s r = fsum (List.map (fun b -> b.b_latency) (round_builds r)) in
  (* [lu] spans every round; each round repeats the same solves *)
  let first_builds = round_builds first in
  {
    setup_s;
    compile_s = List.map round_s rounds;
    rebuilds = List.concat_map round_builds rounds;
    builds = List.concat_map round_builds rounds;
    sweeps = probes;
    det =
      det_of ~priced:first_builds ~solved:first_builds
        ~lu:(lu / List.length rounds) (List.hd probes);
    unit_wall = round_s first;
    heap_mb = heap_peak_mb ();
  }

(* ---- rebuild-edit ---- *)

let edit_programs = [ kasumi; lpm; firewall; csum; qos ]
let store_root = Filename.concat "_artifacts" "perfbench"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let store_dir () =
  Filename.concat store_root (Printf.sprintf "store-%d" (Unix.getpid ()))

let fresh_store () =
  let dir = store_dir () in
  rm_rf dir;
  Cache.Store.create ~dir ()

type edit = Comment of { line : int; token : int } | Model of int

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* One round: per program, three comment edits and one model edit (the
   next of its hand-written model edits in a seeded order), shuffled. *)
let edits_per_round = 3

let round_edits rng ~orders r =
  let edits =
    List.concat_map
      (fun (p, order) ->
        let comments =
          List.init edits_per_round (fun _ ->
              ( p,
                Comment
                  {
                    line = Random.State.int rng (line_count p.source);
                    token = Random.State.int rng 1_000_000;
                  } ))
        in
        let model =
          if order = [||] then []
          else [ (p, Model order.(r mod Array.length order)) ]
        in
        comments @ model)
      orders
  in
  Array.to_list (shuffle rng (Array.of_list edits))

let edited_source p = function
  | Comment { line; token } -> apply_comment_edit p.source ~line ~token
  | Model k -> apply_model_edit p.source (List.nth p.model_edits k)

(* Set-up shared by rebuild-edit and forward-imix: cold incremental
   compiles of the five programs into a fresh store, repeated
   [mode.setup_reps] times.  Returns the last store, the set-up builds
   of every repetition (last one first), the compiled targets with
   their traffic, the durations and the LU counter at the start of the
   last repetition. *)
let seed_store mode =
  let setup () =
    Support.Ident.reset ();
    D.clear_memos ();
    let store = fresh_store () in
    let compiled =
      List.mapi
        (fun i p ->
          let t = traffic p ~seed:(traffic_seed ~seed:mode.seed i) in
          (p, t, incremental_compile ~store p p.source))
        edit_programs
    in
    (store, compiled)
  in
  let states, setup_s, lu0 = repeat_setup mode setup in
  let builds_of (_, compiled) =
    List.filter_map (fun (_, _, r) -> Option.map snd r) compiled
  in
  let store, compiled = last states in
  let targets =
    List.filter_map
      (fun (p, t, r) -> Option.map (fun (c, _) -> (p, c, t)) r)
      compiled
  in
  (store, List.rev_map builds_of states, targets, setup_s, lu0)

let drop_store () =
  rm_rf (store_dir ());
  D.clear_memos ()

let rebuild_edit mode =
  let progs = edit_programs in
  let store, setup_rounds, targets, setup_s, lu0 = seed_store mode in
  let setup_builds = List.hd setup_rounds in
  List.iter (fun (p, c, t) -> check ~label:"rebuild-edit set-up" p c t) targets;
  let rng = Random.State.make [| mode.seed; 0xED17 |] in
  let orders =
    List.map
      (fun p -> (p, shuffle rng (Array.init (List.length p.model_edits) Fun.id)))
      progs
  in
  let traffic_of p = List.assoc p.name (List.map (fun (p, _, t) -> (p.name, t)) targets) in
  let lu_first = ref 0 and heap_mb = ref 0. in
  (* each edited program is checked at one payload size, in rotation:
     a simulator allocates ~5 MB, and checking every size after every
     edit would triple the garbage the timed edits run beside *)
  let edits_done = ref 0 in
  let one_size (t : traffic) =
    incr edits_done;
    [ List.nth t.refs (!edits_done mod List.length t.refs) ]
  in
  let t0 = now () in
  let rounds =
    timed_rounds mode (fun r ->
        let builds =
          List.filter_map
            (fun (p, e) ->
              if r > 0 && now () -. t0 > mode.seconds then None
              else
                match incremental_compile ~store p (edited_source p e) with
                | None -> None
                | Some (c, b) ->
                    check ~refs:one_size ~label:"rebuild-edit" p c (traffic_of p);
                    Some b)
            (round_edits rng ~orders r)
        in
        if r = 0 then begin
          lu_first := Metrics.counter_value m_lu - lu0;
          heap_mb := heap_peak_mb ()
        end;
        builds)
  in
  (* the probe needs neither the store nor the compiler's memos *)
  drop_store ();
  let probes = probe_sweeps mode targets in
  let edit_builds = List.concat rounds in
  let first_unit = setup_builds @ List.hd rounds in
  {
    setup_s;
    compile_s = List.map (fun bs -> fsum (List.map (fun b -> b.b_latency) bs)) setup_rounds;
    rebuilds = edit_builds;
    builds = setup_builds @ edit_builds;
    sweeps = probes;
    det =
      det_of ~priced:setup_builds ~solved:first_unit ~lu:!lu_first
        (List.hd probes);
    unit_wall = fsum (List.map (fun b -> b.b_latency) (List.hd rounds));
    heap_mb = !heap_mb;
  }

(* ---- forward-imix ---- *)

let forward_imix mode =
  let _, setup_rounds, targets, setup_s, lu0 = seed_store mode in
  let lu = Metrics.counter_value m_lu - lu0 in
  drop_store ();
  List.iter (fun (p, c, t) -> check ~label:"forward-imix" p c t) targets;
  let heap_mb = ref 0. in
  let sweeps =
    timed_rounds mode (fun r ->
        let s = sweep targets in
        if r = 0 then heap_mb := heap_peak_mb ();
        s)
  in
  let first = List.hd sweeps in
  List.iter (expect_repeat first) (List.tl sweeps);
  {
    setup_s;
    compile_s = List.map (fun bs -> fsum (List.map (fun b -> b.b_latency) bs)) setup_rounds;
    rebuilds = List.concat setup_rounds;
    builds = List.hd setup_rounds;
    sweeps;
    det =
      det_of ~priced:(List.hd setup_rounds) ~solved:(List.hd setup_rounds) ~lu
        first;
    unit_wall = first.s_drive_s;
    heap_mb = !heap_mb;
  }

let workloads =
  [
    ("compile-proof", compile_proof);
    ("rebuild-edit", rebuild_edit);
    ("forward-imix", forward_imix);
  ]

(* ---------------- metrics ---------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Each program's own percentile of its build latencies, in ms, then the
   geometric mean over programs: the programs' latencies differ by 10x,
   so a pooled percentile would jump between programs from seed to
   seed. *)
let rebuild_ms builds q =
  let programs = List.sort_uniq compare (List.map (fun b -> b.b_program) builds) in
  geomean
    (List.map
       (fun name ->
         percentile
           (List.filter_map
              (fun b -> if b.b_program = name then Some (b.b_latency *. 1e3) else None)
              builds)
           q)
       programs)

let end_to_end (p : pass) =
  let last_sweeps = p.sweeps in
  [
    m "compile_s" "s" (median p.compile_s);
    m "move_cost" "moves" p.det.move_cost;
    m "rebuild_ms_p50" "ms" (rebuild_ms p.rebuilds 0.5);
    m "rebuild_ms_p90" "ms" (rebuild_ms p.rebuilds 0.9);
    m "fwd_mpps" "Mpps" p.det.fwd_mpps;
    m "fwd_p99_cycles" "cycles" p.det.fwd_p99;
    m "sim_minsn_per_s" "Minsn/s" (median (List.map sim_minsn_per_s last_sweeps));
    m "setup_s" "s" (median p.setup_s);
    m "heap_peak_mb" "MB" p.heap_mb;
  ]

(* Per-layer numbers of the traced pass: build layers per build, chip
   layers per sweep or per packet. *)
let per_layer (p : pass) ~counters0 ~overhead =
  let self = Layers.self_times () in
  let nb = float_of_int (max 1 (List.length p.builds)) in
  let per_build_s names = fsum (List.map (Layers.get self) names) /. nb in
  let per_build f = float_of_int (isum (List.map f p.builds)) /. nb in
  let live =
    List.filter_map
      (fun b -> if b.b_live then b.b_stats.D.mip else None)
      p.builds
  in
  let mip_sum f = float_of_int (isum (List.map f live)) in
  let mip_mean f = mip_sum f /. float_of_int (max 1 (List.length live)) in
  let mip_per_build f = mip_sum f /. nb in
  let counter name =
    float_of_int
      (Metrics.counter_value (Metrics.counter name)
      - Option.value ~default:0 (List.assoc_opt name counters0))
  in
  let incr_builds = List.filter_map (fun b -> b.b_report) p.builds in
  let share f =
    ratio
      (float_of_int (List.length (List.filter f incr_builds)))
      (float_of_int (List.length incr_builds))
  in
  let runs = List.concat_map (fun s -> s.runs) p.sweeps in
  let first = List.hd p.sweeps in
  let sat = List.filter (fun r -> not r.r_half) first.runs in
  let per_pkt f r = ratio (float_of_int (f r)) (float_of_int r.r_report.Ixp.Chip.completed) in
  let mean xs = fsum xs /. float_of_int (max 1 (List.length xs)) in
  let bus space field r =
    match List.assoc_opt space r.r_report.Ixp.Chip.bus with
    | None -> 0
    | Some s -> (
        match field with
        | `Requests -> s.Ixp.Memory.chan_requests
        | `Busy -> s.Ixp.Memory.chan_busy
        | `Stall -> s.Ixp.Memory.chan_stall)
  in
  let engine_busy r = Array.fold_left ( + ) 0 r.r_report.Ixp.Chip.engine_busy in
  let utilization r =
    let rep = r.r_report in
    mean
      (List.init (Array.length rep.Ixp.Chip.engine_busy) (Ixp.Chip.utilization rep))
  in
  let cuts_added = mip_sum (fun s -> s.Lp.Mip.cuts_added)
  and cut_rounds = mip_sum (fun s -> s.Lp.Mip.cut_rounds) in
  [
    m "nova.parse_s" "s" (per_build_s [ "parse" ]);
    m "nova.typecheck_s" "s" (per_build_s [ "typecheck" ]);
    m "nova.source_lines" "lines" (per_build (fun b -> b.b_stats.D.source.Nova.Stats.lines));
    m "cps.convert_s" "s" (per_build_s [ "cps-convert" ]);
    m "cps.contract_s" "s" (per_build_s [ "contract" ]);
    m "cps.deproc_s" "s" (per_build_s [ "deproc" ]);
    m "cps.ssu_s" "s" (per_build_s [ "ssu" ]);
    m "cps.isel_s" "s" (per_build_s [ "isel" ]);
    m "cps.verify_s" "s" (per_build_s [ "verify"; "verify-differential" ]);
    m "cps.size_initial" "nodes" (per_build (fun b -> b.b_stats.D.cps_size_initial));
    m "cps.size_optimized" "nodes" (per_build (fun b -> b.b_stats.D.cps_size_optimized));
    m "cps.virtual_insns" "insns" (per_build (fun b -> b.b_stats.D.virtual_insns));
    m "regalloc.modelgen_s" "s" (per_build_s [ "modelgen" ]);
    m "regalloc.ilp_build_s" "s" (per_build_s [ "ilp-build" ]);
    m "regalloc.fingerprint_s" "s" (per_build_s [ "model-fingerprint" ]);
    m "regalloc.points" "count" (per_build (fun b -> b.b_points));
    m "regalloc.temps" "count" (per_build (fun b -> b.b_temps));
    m "regalloc.validate_s" "s" (per_build_s [ "validate" ]);
    m "regalloc.emit_s" "s" (per_build_s [ "emit" ]);
    m "regalloc.machine_check_s" "s" (per_build_s [ "machine-check" ]);
    m "regalloc.moves" "count" (per_build (fun b -> b.b_stats.D.moves_inserted));
    m "regalloc.spills" "count" (per_build (fun b -> b.b_stats.D.spills_inserted));
    m "regalloc.weighted_move_cost" "moves"
      (fsum (List.map (fun b -> b.b_stats.D.weighted_move_cost) p.builds) /. nb);
    m "lp.presolve_s" "s" (per_build_s [ "presolve" ]);
    m "lp.root_cuts_s" "s" (per_build_s [ "root-cuts" ]);
    m "lp.root_lp_s" "s" (per_build_s [ "root-lp" ]);
    m "lp.bb_s" "s" (per_build_s [ "branch-and-bound" ]);
    m "lp.vars_before" "count" (mip_mean (fun s -> s.Lp.Mip.vars_before));
    m "lp.vars_after" "count" (mip_mean (fun s -> s.Lp.Mip.vars_after));
    m "lp.rows_before" "count" (mip_mean (fun s -> s.Lp.Mip.rows_before));
    m "lp.rows_after" "count" (mip_mean (fun s -> s.Lp.Mip.rows_after));
    m "lp.nonzeros" "count" (mip_mean (fun s -> s.Lp.Mip.nonzeros));
    m "lp.nodes" "count" (mip_per_build (fun s -> s.Lp.Mip.nodes));
    m "lp.simplex_iterations" "count" (mip_per_build (fun s -> s.Lp.Mip.simplex_iterations));
    m "lp.lu_refactorizations" "count" (counter "lp.lu.refactorizations" /. nb);
    m "lp.cut_rounds" "count" (cut_rounds /. nb);
    m "lp.cuts_added" "count" (cuts_added /. nb);
    m "lp.cut_yield" "cuts/round" (ratio cuts_added cut_rounds);
    m "lp.heuristic_incumbents" "count" (mip_per_build (fun s -> s.Lp.Mip.heuristic_incumbents));
    m "cache.hit" "count" (counter "cache.hit" /. nb);
    m "cache.miss" "count" (counter "cache.miss" /. nb);
    m "cache.evict" "count" (counter "cache.evict" /. nb);
    m "cache.replay_share" "share" (share (fun r -> r.D.solve_hit));
    m "cache.warm_share" "share" (share (fun r -> r.D.warm_used));
    m "ixp.drive_s" "s" (mean (List.map (fun s -> s.s_drive_s) p.sweeps));
    m "ixp.insns" "insns" (float_of_int first.s_insns);
    m "ixp.host_ns_per_insn" "ns/insn"
      (ratio
         (fsum (List.map (fun r -> r.r_drive_s) runs) *. 1e9)
         (float_of_int (isum (List.map (fun r -> r.r_insns) runs))));
    m "ixp.minor_words_per_pkt" "words/pkt"
      (ratio
         (fsum (List.map (fun r -> r.r_minor_words) runs))
         (float_of_int (isum (List.map (fun r -> r.r_report.Ixp.Chip.generated) runs))));
    m "ixp.busy_cycles_per_pkt" "cycles/pkt" (geomean (List.map (per_pkt engine_busy) sat));
    m "ixp.utilization" "share" (mean (List.map utilization sat));
    m "ixp.rx_dropped" "packets"
      (float_of_int (isum (List.map (fun r -> Ixp.Chip.dropped r.r_report) first.runs)));
  ]
  @ List.concat_map
      (fun space ->
        List.map
          (fun (field, fname, unit_) ->
            m
              (Printf.sprintf "ixp.bus.%s.%s_per_pkt" space fname)
              unit_
              (mean (List.map (per_pkt (bus space field)) sat)))
          [
            (`Requests, "requests", "requests/pkt");
            (`Busy, "busy", "cycles/pkt");
            (`Stall, "stall", "cycles/pkt");
          ])
      [ "sram"; "sdram"; "scratch"; "fifo" ]
  @ [ m "trace.overhead_share" "share" overhead ]

(* ---------------- main ---------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload compile-proof|rebuild-edit|forward-imix \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        go rest
    | "--seconds" :: n :: rest ->
        seconds := float_of_string_opt n;
        go rest
    | "--trace" :: n :: rest ->
        trace := (match n with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0. ->
      (!workload, run, seed, seconds, trace)
  | _ -> usage ()

let print_metrics ms =
  List.iter (fun x -> Printf.printf "  %-32s %16.6g %s\n" x.name x.value x.unit_) ms

let json ~correct ms =
  Support.Json.encode
    (Support.Json.Obj
       [
         ("correct", Support.Json.Bool correct);
         ("attempted", Support.Json.Num (float_of_int !attempted));
         ("failed", Support.Json.Num (float_of_int !failed));
         ( "metrics",
           Support.Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Support.Json.Obj
                      [
                        ("value", Support.Json.Num x.value);
                        ("unit", Support.Json.Str x.unit_);
                      ] ))
                ms) );
       ])

let compare_det (a : det) (b : det) =
  let same name x y =
    if x <> y then begin
      Printf.printf "  self-check: %s untraced %.17g, traced %.17g\n" name x y;
      false
    end
    else true
  in
  List.for_all Fun.id
    [
      same "move_cost" a.move_cost b.move_cost;
      same "fwd_mpps" a.fwd_mpps b.fwd_mpps;
      same "fwd_p99_cycles" a.fwd_p99 b.fwd_p99;
      same "lp.nodes" (float_of_int a.nodes) (float_of_int b.nodes);
      same "lp.simplex_iterations" (float_of_int a.iters) (float_of_int b.iters);
      same "lp.lu_refactorizations" (float_of_int a.lu) (float_of_int b.lu);
      same "ixp.insns" (float_of_int a.insns) (float_of_int b.insns);
    ]

let () =
  let name, run, seed, seconds, trace = parse_args () in
  Printf.printf "perfbench: workload %s, seed %d, %g s, trace %d\n%!" name seed
    seconds (if trace then 1 else 0);
  let mode = { seed; seconds; setup_reps = 3; short = false } in
  let correct, metrics =
    if not trace then begin
      let p = run mode in
      let ms = end_to_end p in
      Printf.printf
        "  samples: %d set-ups, %d compile rounds, %d builds timed, %d \
         sweeps\n"
        (List.length p.setup_s) (List.length p.compile_s)
        (List.length p.rebuilds) (List.length p.sweeps);
      (!failed = 0, ms)
    end
    else begin
      let untraced = run { mode with setup_reps = 1; short = true } in
      let counters0 =
        List.map
          (fun n -> (n, Metrics.counter_value (Metrics.counter n)))
          [ "lp.lu.refactorizations"; "cache.hit"; "cache.miss"; "cache.evict" ]
      in
      Trace.enable ();
      let traced = run { mode with setup_reps = 1 } in
      Trace.disable ();
      let same = compare_det untraced.det traced.det in
      Printf.printf "  self-check (untraced vs traced first unit): %s\n"
        (if same then "identical" else "DIFFERENT");
      let overhead = (traced.unit_wall /. untraced.unit_wall) -. 1. in
      let ms = per_layer traced ~counters0 ~overhead in
      Cache.Store.mkdir_p store_root;
      Trace.write
        (Filename.concat store_root (Printf.sprintf "trace-%s-%d.json" name seed));
      (!failed = 0 && same, ms)
    end
  in
  Printf.printf "  failed_share: %d of %d operations (%g)\n" !failed !attempted
    (ratio (float_of_int !failed) (float_of_int !attempted));
  print_metrics metrics;
  print_endline (json ~correct metrics)
