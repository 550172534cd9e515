(* A bank/color assignment for a flowgraph: the common interface between
   the ILP allocator and the heuristic baseline.  [Emit] consumes this to
   produce the physical program, so both allocators share emission,
   checking and simulation. *)

open Support
module Bank = Ixp.Bank

type t = {
  mg : Modelgen.t;
  bank_before : int -> Ident.t -> Bank.t; (* point id -> temp -> bank *)
  bank_after : int -> Ident.t -> Bank.t;
  (* non-identity moves performed at a point, in no particular order *)
  moves_at : int -> (Ident.t * Bank.t * Bank.t) list;
  (* register number within a transfer bank (point-independent, §9) *)
  xfer_color : Ident.t -> Bank.t -> int;
}

(* The ILP solution read out into tables, so the assignment (and each
   compiled program holding it) does not keep the solver's instance,
   problem and MIP result alive.  Banks are read for every (point, temp)
   the model places, moves for every point, colors for every temp and
   transfer bank it may use; a lookup outside those fails as reading
   the solution would. *)
let of_ilp (s : Ilp.solution) : t =
  let mg = s.Ilp.ilp.Ilp.mg in
  let tabulate read =
    Array.mapi
      (fun p set ->
        Ident.Set.fold
          (fun v banks ->
            match read s p v with
            | Some b -> Ident.Map.add v b banks
            | None -> banks)
          set Ident.Map.empty)
      mg.Modelgen.exists_at
  in
  let get_bank banks p v =
    match Ident.Map.find_opt v banks.(p) with
    | Some b -> b
    | None -> (
        match Modelgen.fixed_bank mg v with
        | Some b -> b
        | None ->
            Diag.ice "assignment: no bank for %a at point %a" Ident.pp v
              Ixp.Flowgraph.pp_point (Modelgen.point_of mg p))
  in
  let before = tabulate Ilp.bank_before and after = tabulate Ilp.bank_after in
  let moves =
    Array.init (Array.length mg.Modelgen.exists_at) (Ilp.moves_at s)
  in
  let colors = Ident.Tbl.create (Array.length mg.Modelgen.temps) in
  Array.iter
    (fun v ->
      match
        List.filter_map
          (fun b -> Option.map (fun r -> (b, r)) (Ilp.color_of s v b))
          (Modelgen.allowed_xfer mg v)
      with
      | [] -> ()
      | bank_colors -> Ident.Tbl.replace colors v bank_colors)
    mg.Modelgen.temps;
  {
    mg;
    bank_before = get_bank before;
    bank_after = get_bank after;
    moves_at = (fun p -> moves.(p));
    xfer_color =
      (fun v b ->
        match
          Option.bind (Ident.Tbl.find_opt colors v) (List.assoc_opt b)
        with
        | Some r -> r
        | None ->
            Diag.ice "assignment: no %s color for %a" (Bank.to_string b)
              Ident.pp v);
  }

(* Sanity checks every assignment must satisfy; used by tests and run in
   the driver under a debug flag.  Checks the copy discipline (banks agree
   across instruction and control edges modulo declared moves) and that
   aggregate colors are adjacent. *)
let validate (a : t) : string list =
  let mg = a.mg in
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  (* moves are consistent with before/after banks *)
  Modelgen.iter_exists mg (fun p v ->
      let b = a.bank_before p v and b' = a.bank_after p v in
      let declared = List.filter (fun (w, _, _) -> Ident.equal w v) (a.moves_at p) in
      match declared with
      | [] ->
          if not (Bank.equal b b') then
            err "%a changes bank %s->%s at %a without a move" Ident.pp v
              (Bank.to_string b) (Bank.to_string b') Ixp.Flowgraph.pp_point
              (Modelgen.point_of mg p)
      | [ (_, mb, mb') ] ->
          if not (Bank.equal b mb && Bank.equal b' mb') then
            err "%a declared move %s->%s disagrees with banks %s->%s" Ident.pp
              v (Bank.to_string mb) (Bank.to_string mb') (Bank.to_string b)
              (Bank.to_string b')
      | _ -> err "%a moves twice at one point" Ident.pp v);
  (* copies across instruction and control edges *)
  List.iter
    (fun (p1, p2, v) ->
      let b1 = a.bank_after p1 v and b2 = a.bank_before p2 v in
      if not (Bank.equal b1 b2) then
        err "copy of %a broken: after %a in %s, before %a in %s" Ident.pp v
          Ixp.Flowgraph.pp_point (Modelgen.point_of mg p1) (Bank.to_string b1)
          Ixp.Flowgraph.pp_point (Modelgen.point_of mg p2) (Bank.to_string b2))
    mg.Modelgen.copies;
  (* aggregates adjacent and in range *)
  let check_agg members b =
    Array.iteri
      (fun j v ->
        let c = a.xfer_color v b in
        if j > 0 && c <> a.xfer_color members.(j - 1) b + 1 then
          err "aggregate member %a not adjacent in %s" Ident.pp v
            (Bank.to_string b);
        if c < 0 || c > 7 then err "color %d out of range" c)
      members
  in
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      check_agg ad.Modelgen.ad_members (Ixp.Insn.read_bank ad.Modelgen.ad_space))
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      check_agg au.Modelgen.au_members (Ixp.Insn.write_bank au.Modelgen.au_space))
    mg.Modelgen.agg_uses;
  (* same-register pairs *)
  List.iter
    (fun (d, s) ->
      if a.xfer_color d Bank.L <> a.xfer_color s Bank.S then
        err "same-reg pair %a/%a disagrees" Ident.pp d Ident.pp s)
    mg.Modelgen.same_reg;
  List.rev !errors
