(* The Hashtbl-based [Sparse_lu.factorize] that the flat-array rewrite
   replaced, kept as a test-only oracle.  The body is the old one
   unchanged up to its factors: it returns the pivot order, the pivots
   and the L and U entries in their stored order, and it counts the
   pivot candidates it examines in the same metric, raising
   [Sparse_lu.Singular] the same way.  [Sparse_lu] must reproduce all
   of it bit for bit, because the simplex path and every B&B node
   depend on it. *)

open Lp

type factors = {
  pr : int array;
  pc : int array;
  pivots : float array;
  lmat : (int * float) array array; (* step -> (row, multiplier) *)
  umat : (int * float) array array; (* step -> (later step, value) *)
}

let drop_tol = 1e-13
let abs_pivot_tol = 1e-11
let rel_pivot_tol = 0.1
let m_candidates = Support.Metrics.counter "lp.lu.pivot_candidates"

type entry = { col : int; bkt : int; mutable dead : bool }

let no_entry = { col = -1; bkt = -1; dead = true }

type bucket = {
  mutable buf : entry array; (* circular; capacity 0 or a power of two *)
  mutable head : int;
  mutable len : int;
  mutable flipped : bool; (* the logical front is the physical back *)
  mutable at_risk : int list; (* columns that left this count *)
}

(* Push at the logical front. *)
let bucket_push b e =
  let cap = Array.length b.buf in
  if b.len = cap then begin
    let buf = Array.make (max 4 (2 * cap)) no_entry in
    for k = 0 to b.len - 1 do
      buf.(k) <- b.buf.((b.head + k) land (cap - 1))
    done;
    b.buf <- buf;
    b.head <- 0
  end;
  let mask = Array.length b.buf - 1 in
  if b.flipped then b.buf.((b.head + b.len) land mask) <- e
  else begin
    b.head <- (b.head - 1) land mask;
    b.buf.(b.head) <- e
  end;
  b.len <- b.len + 1

(* Pop from the logical front; [b] must be non-empty. *)
let bucket_pop b =
  let mask = Array.length b.buf - 1 in
  b.len <- b.len - 1;
  if b.flipped then b.buf.((b.head + b.len) land mask)
  else begin
    let e = b.buf.(b.head) in
    b.head <- (b.head + 1) land mask;
    e
  end

(* [factorize m column] factors the m x m matrix whose [j]-th column is
   the sparse vector [column j] (a (row, value) array).  Raises
   [Singular] when no acceptable pivot remains. *)
let factorize m column =
  (* Active submatrix: per-column hashtables row -> value, plus a
     row -> column-set index and entry counts, all maintained under
     elimination. *)
  let acols =
    Array.init m (fun j ->
        let tbl = Hashtbl.create 8 in
        Array.iter
          (fun (i, v) ->
            if v <> 0. then
              match Hashtbl.find_opt tbl i with
              | Some prev -> Hashtbl.replace tbl i (prev +. v)
              | None -> Hashtbl.replace tbl i v)
          (column j);
        tbl)
  in
  let rowcols = Array.init m (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun j tbl -> Hashtbl.iter (fun i _ -> Hashtbl.replace rowcols.(i) j ()) tbl)
    acols;
  let colcnt = Array.map Hashtbl.length acols in
  let rowcnt = Array.map Hashtbl.length rowcols in
  let col_active = Array.make m true in
  let buckets =
    Array.init (m + 1) (fun _ ->
        { buf = [||]; head = 0; len = 0; flipped = false; at_risk = [] })
  in
  (* per column, its entries not yet killed, in whichever buckets *)
  let entries = Array.make m [] in
  (* Count 0 is never scanned (and never left: an empty column takes no
     fill-in), so it gets no bucket entries. *)
  let push_bucket j =
    let c = colcnt.(j) in
    if c >= 1 then begin
      let e = { col = j; bkt = c; dead = false } in
      entries.(j) <- e :: entries.(j);
      bucket_push buckets.(c) e
    end
  in
  let leave j c =
    if c >= 1 then buckets.(c).at_risk <- j :: buckets.(c).at_risk
  in
  let kill j c =
    entries.(j) <-
      List.filter
        (fun e ->
          if e.bkt = c then begin
            e.dead <- true;
            false
          end
          else true)
        entries.(j)
  in
  for j = 0 to m - 1 do
    push_bucket j
  done;
  (* Best (threshold-acceptable) pivot entry within column [j]:
     (row, value, rowcount), preferring short rows then large values. *)
  let best_in_col j =
    let tbl = acols.(j) in
    let colmax = Hashtbl.fold (fun _ v acc -> Float.max (Float.abs v) acc) tbl 0. in
    if colmax < abs_pivot_tol then None
    else begin
      let thresh = rel_pivot_tol *. colmax in
      let bi = ref (-1) and bv = ref 0. and bc = ref max_int in
      Hashtbl.iter
        (fun i v ->
          let av = Float.abs v in
          if av >= thresh then
            if
              rowcnt.(i) < !bc
              || (rowcnt.(i) = !bc && av > Float.abs !bv)
            then begin
              bi := i;
              bv := v;
              bc := rowcnt.(i)
            end)
        tbl;
      if !bi < 0 then None else Some (!bi, !bv, !bc)
    end
  in
  (* Markowitz pivot selection: scan buckets in increasing column count,
     stop at the first zero-cost candidate or after a handful of
     candidates (partial pricing of pivots, GLPK-style).  [examined]
     counts the bucket entries popped, dead or alive. *)
  let examined = ref 0 in
  let select () =
    let best = ref None in
    let ncand = ref 0 in
    let stop = ref false in
    let cnt = ref 1 in
    while (not !stop) && !cnt <= m do
      let c = !cnt in
      let b = buckets.(c) in
      if b.len > 0 then begin
        List.iter
          (fun j -> if (not col_active.(j)) || colcnt.(j) <> c then kill j c)
          b.at_risk;
        b.at_risk <- [];
        let visited = ref [] in
        while (not !stop) && b.len > 0 do
          let e = bucket_pop b in
          incr examined;
          if not e.dead then begin
            visited := e :: !visited;
            match best_in_col e.col with
            | None -> ()
            | Some (i, v, rc) ->
                let cost = (c - 1) * (rc - 1) in
                (match !best with
                | Some (c0, _, _, _) when c0 <= cost -> ()
                | _ -> best := Some (cost, e.col, i, v));
                incr ncand;
                if cost = 0 || !ncand >= 4 then stop := true
          end
        done;
        (* put the examined prefix back where it was, then reverse *)
        List.iter (bucket_push b) !visited;
        b.flipped <- not b.flipped
      end
      else b.at_risk <- [];
      if !best <> None then stop := true;
      incr cnt
    done;
    !best
  in
  let pr = Array.make m (-1) in
  let pc = Array.make m (-1) in
  let pivots = Array.make m 0. in
  let lmat = Array.make m [||] in
  let umat_cols = Array.make m [] in
  for k = 0 to m - 1 do
    match select () with
    | None ->
        Support.Metrics.add m_candidates !examined;
        raise Sparse_lu.Singular
    | Some (_cost, j, i, piv) ->
        pr.(k) <- i;
        pc.(k) <- j;
        pivots.(k) <- piv;
        let tbl_j = acols.(j) in
        let mults =
          Hashtbl.fold
            (fun r v acc -> if r = i then acc else (r, v /. piv) :: acc)
            tbl_j []
        in
        lmat.(k) <- Array.of_list mults;
        let urow =
          Hashtbl.fold
            (fun j' () acc ->
              if j' = j then acc
              else
                match Hashtbl.find_opt acols.(j') i with
                | Some u -> (j', u) :: acc
                | None -> acc)
            rowcols.(i) []
        in
        umat_cols.(k) <- urow;
        (* retire the pivot column from the row index *)
        Hashtbl.iter
          (fun r _ ->
            if r <> i then begin
              Hashtbl.remove rowcols.(r) j;
              rowcnt.(r) <- rowcnt.(r) - 1
            end)
          tbl_j;
        col_active.(j) <- false;
        leave j colcnt.(j);
        (* eliminate the pivot row from every other active column *)
        List.iter
          (fun (j', u) ->
            let tbl = acols.(j') in
            let c0 = colcnt.(j') in
            Hashtbl.remove tbl i;
            colcnt.(j') <- colcnt.(j') - 1;
            List.iter
              (fun (r, mu) ->
                let delta = -.(mu *. u) in
                match Hashtbl.find_opt tbl r with
                | Some old ->
                    let nv = old +. delta in
                    if Float.abs nv <= drop_tol then begin
                      Hashtbl.remove tbl r;
                      colcnt.(j') <- colcnt.(j') - 1;
                      Hashtbl.remove rowcols.(r) j';
                      rowcnt.(r) <- rowcnt.(r) - 1
                    end
                    else Hashtbl.replace tbl r nv
                | None ->
                    if Float.abs delta > drop_tol then begin
                      Hashtbl.replace tbl r delta;
                      colcnt.(j') <- colcnt.(j') + 1;
                      Hashtbl.replace rowcols.(r) j' ();
                      rowcnt.(r) <- rowcnt.(r) + 1
                    end)
              mults;
            if colcnt.(j') <> c0 then leave j' c0;
            push_bucket j')
          urow;
        Hashtbl.reset rowcols.(i);
        Hashtbl.reset tbl_j
  done;
  Support.Metrics.add m_candidates !examined;
  (* Remap U entries from column ids to elimination steps, so back
     substitution indexes the step-space solution vector directly. *)
  let pos_of_col = Array.make m (-1) in
  for k = 0 to m - 1 do
    pos_of_col.(pc.(k)) <- k
  done;
  let umat =
    Array.map
      (fun l -> Array.of_list (List.map (fun (j', u) -> (pos_of_col.(j'), u)) l))
      umat_cols
  in
  { pr; pc; pivots; lmat; umat }
