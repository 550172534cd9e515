(* Self time per span name from the recorded trace.

   [Support.Trace.span_totals] is inclusive (a "branch-and-bound" total
   contains the "root-lp" spans inside it), so self time is derived
   here from the nesting of the complete events: a span's self time is
   its duration minus the durations of the spans directly inside it.
   Every span this benchmark records runs on one domain, so nesting is
   exactly interval containment. *)

let self_times () : (string, float) Hashtbl.t =
  let spans = ref [] in
  Support.Vec.iter
    (fun (ev : Support.Trace.event) ->
      if ev.ev_ph = 'X' then spans := ev :: !spans)
    Support.Trace.events;
  let spans =
    List.sort
      (fun (a : Support.Trace.event) (b : Support.Trace.event) ->
        match Float.compare a.ev_ts b.ev_ts with
        | 0 -> Float.compare b.ev_dur a.ev_dur
        | c -> c)
      !spans
  in
  let self = Hashtbl.create 32 in
  let add name s =
    let prev = Option.value ~default:0. (Hashtbl.find_opt self name) in
    Hashtbl.replace self name (prev +. s)
  in
  (* open spans, innermost first: (event, summed child durations) *)
  let stack = ref [] in
  let close ((ev : Support.Trace.event), children) =
    add ev.ev_name ((ev.ev_dur -. !children) /. 1e6)
  in
  List.iter
    (fun (ev : Support.Trace.event) ->
      let rec pop () =
        match !stack with
        | ((top : Support.Trace.event), _) as entry :: rest
          when top.ev_ts +. top.ev_dur <= ev.ev_ts ->
            close entry;
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (_, children) :: _ -> children := !children +. ev.ev_dur
      | [] -> ());
      stack := (ev, ref 0.) :: !stack)
    spans;
  List.iter close !stack;
  self

let get tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* The chip records one span per context run when tracing is on --
   millions for a payload-bound program -- so the benchmark pauses the
   recorder around [Ixp.Chip.drive] and records its own span instead.
   The chip's counters carry its per-layer numbers. *)
let without_recording f =
  let was = Support.Trace.is_enabled () in
  Atomic.set Support.Trace.on false;
  Fun.protect ~finally:(fun () -> Atomic.set Support.Trace.on was) f
