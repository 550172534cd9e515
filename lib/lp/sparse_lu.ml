(* Sparse LU factorization of a simplex basis, with product-form eta
   updates between refactorizations.

   The revised simplex needs four operations against the basis matrix B
   (whose columns are the sparse constraint columns of the basic
   variables):

     FTRAN:  solve B x = b        (entering column, x_B recomputation)
     BTRAN:  solve B' y = c       (dual values, pivot rows of Binv)
     UPDATE: replace column r of B by a new column a_q
     REFACTORIZE: rebuild the factors from the current basis

   The previous implementation kept a dense m x m explicit inverse:
   O(m^2) memory and per-pivot update, O(m^3) refactorization -- hopeless
   on the thousand-row register-allocation models.  Here B is factored as

     E B = U        (Gaussian elimination, Markowitz-ordered pivoting)

   where E is the product of the recorded elementary row operations
   (stored column-wise per elimination step, [lmat]) and U is the sparse
   upper-triangular matrix of pivot rows (stored row-wise per step,
   [umat], with entries indexed by *elimination step* of their column).
   Slack columns are unit vectors, and the structural columns of the
   allocation models are short, so the greedy singleton-first Markowitz
   order dissolves almost the whole basis with no fill-in; only a small
   "bump" needs real elimination.  Little arithmetic is not little work,
   though: with thousands of singleton columns waiting, a selection that
   rescans its candidate bucket on every pivot is O(m^2) per
   factorization, and on the AES model (m = 6146) that rescan was 77% of
   all simplex time.  Selection therefore examines only the candidates it
   needs (see the bucket deque below), amortized O(1) per pivot.

   Column replacements are absorbed as product-form etas: replacing
   column r by a_q multiplies B on the right by the eta matrix E_r that
   is the identity except for column r = w, where w = B^-1 a_q (the
   FTRAN of the entering column, which the simplex iteration has already
   computed).  FTRAN applies the eta file oldest-to-newest after the LU
   solve; BTRAN applies it newest-to-oldest before the LU solve.  The
   caller refactorizes periodically to keep the eta file short (the
   classic Forrest-Tomlin trade: cheap O(nnz) updates between
   refactorizations, a sparse refactorization every few dozen pivots).

   Each solve comes in two forms.  [ftran]/[btran] take a dense vector
   and loop over every step; they serve dense right-hand sides (x_B and
   dual recomputation).  [ftran_sparse]/[btran_sparse] take a vector
   that is zero outside a nonzero index list ([nz]) and return the
   result's list, touching only the steps the nonzeros reach: a pivot's
   BTRAN row and FTRAN column have about 1% nonzeros on the allocation
   models.
   The L passes walk only the steps with multipliers ([lsteps]); FTRAN's
   back substitution pops reached steps highest first from a heap over
   the transposed U pattern ([ut_*]), BTRAN's U' pass pops them lowest
   first.  Both forms do the same floating-point operations in the same
   order on every value that can be nonzero: a skipped term has an
   exactly zero factor, each reached step keeps its dot product over
   [umat] in stored order, and each accumulator receives its updates in
   increasing step order, as in the dense loop.  The results therefore
   agree bit for bit, except that a zero may differ in sign. *)

exception Singular

type eta = {
  e_r : int; (* basis position whose column was replaced *)
  e_wr : float; (* w_r, the pivot element of the replacement *)
  e_entries : (int * float) array; (* (i, w_i) for i <> r, |w_i| > drop *)
}

(* The possibly-nonzero indices of a sparse vector: [idx.(0 .. count-1)],
   each index at most once, in no particular order.  Entries that
   cancelled to zero may stay listed; a nonzero is never left out. *)
type nz = { idx : int array; mutable count : int }

let nz_create m = { idx = Array.make m 0; count = 0 }

(* Scratch space of the solves, kept by the caller across
   refactorizations.  [xs] and [vs] are all zero between calls; the
   dense solves, which overwrite them whole, zero them again after. *)
type work = {
  mark : int array; (* index -> stamp of the pass that listed it *)
  mutable stamp : int;
  heap : int array; (* binary min-heap of steps *)
  mutable heap_len : int;
  reached : int array; (* steps reached by a sparse solve, in order *)
  xs : float array; (* step space *)
  vs : float array; (* row space *)
}

let work_create m =
  {
    mark = Array.make m 0;
    stamp = 0;
    heap = Array.make m 0;
    heap_len = 0;
    reached = Array.make m 0;
    xs = Array.make m 0.;
    vs = Array.make m 0.;
  }

type t = {
  m : int;
  pr : int array; (* elimination step -> pivot row *)
  pc : int array; (* elimination step -> pivot column (basis position) *)
  pivots : float array; (* elimination step -> pivot value *)
  lmat : (int * float) array array; (* step -> (row, multiplier) list *)
  umat : (int * float) array array; (* step -> (later step, value) list *)
  step_of_row : int array; (* inverse of [pr] *)
  step_of_pos : int array; (* inverse of [pc] *)
  ut_start : int array;
      (* transposed U pattern: the steps whose [umat] row holds step l
         are [ut_steps.(ut_start.(l) .. ut_start.(l+1) - 1)] *)
  ut_steps : int array;
  lsteps : int array; (* steps with a nonempty [lmat], ascending *)
  lu_nnz : int;
  etas : eta Support.Vec.t;
  mutable eta_nnz : int;
  work : work;
}

let drop_tol = 1e-13
let abs_pivot_tol = 1e-11
let rel_pivot_tol = 0.1 (* threshold pivoting within the chosen column *)

(* Bucket entries popped by pivot selection, summed per factorization. *)
let m_candidates = Support.Metrics.counter "lp.lu.pivot_candidates"

(* FTRAN and BTRAN calls, and the vector and factor entries they visit
   (loop iterations over steps, rows, positions and stored entries),
   each added once per call. *)
let m_ftran = Support.Metrics.counter "lp.lu.ftran"
let m_btran = Support.Metrics.counter "lp.lu.btran"
let m_entries = Support.Metrics.counter "lp.lu.solve_entries"

(* Pivot candidate buckets.

   Selection keeps the active columns bucketed by entry count, and the
   order in which a bucket yields its columns breaks ties, so that order
   is part of the factorization's output.  It is the order of a list
   that takes new entries at its front and, on every scan, drops the
   entries whose column is no longer at that count (or is retired) and
   reverses itself.  A column touched by elimination is pushed again
   even when its count did not change, so a bucket can hold a column
   twice, and both entries are candidates.

   The deque below gives the same order while a scan touches only the
   entries it examines.  A direction flag stands in for the reversal.
   A column that leaves a count, or is retired, joins that bucket's
   at-risk list; the next scan of the bucket kills the column's entries
   there if it is still away or retired.  Those are exactly the entries
   the list filter would drop -- a column that left and came back before
   the scan keeps its entries, as under the filter.  Killed entries stay
   in the deque until a scan pops them. *)
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
   [Singular] when no acceptable pivot remains.  [work], the scratch
   space of an earlier factorization of the same size, is reused. *)
let factorize ?work m column =
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
        raise Singular
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
  let lu_nnz =
    let s = ref m in
    Array.iter (fun a -> s := !s + Array.length a) lmat;
    Array.iter (fun a -> s := !s + Array.length a) umat;
    !s
  in
  let step_of_row = Array.make m 0 in
  let step_of_pos = Array.make m 0 in
  for k = 0 to m - 1 do
    step_of_row.(pr.(k)) <- k;
    step_of_pos.(pc.(k)) <- k
  done;
  let ut_start = Array.make (m + 1) 0 in
  Array.iter
    (Array.iter (fun (l, _) -> ut_start.(l + 1) <- ut_start.(l + 1) + 1))
    umat;
  for l = 0 to m - 1 do
    ut_start.(l + 1) <- ut_start.(l + 1) + ut_start.(l)
  done;
  let ut_steps = Array.make ut_start.(m) 0 in
  let fill = Array.sub ut_start 0 m in
  Array.iteri
    (fun k row ->
      Array.iter
        (fun (l, _) ->
          ut_steps.(fill.(l)) <- k;
          fill.(l) <- fill.(l) + 1)
        row)
    umat;
  let lsteps =
    let acc = ref [] in
    for k = m - 1 downto 0 do
      if Array.length lmat.(k) > 0 then acc := k :: !acc
    done;
    Array.of_list !acc
  in
  let work =
    match work with
    | Some w when Array.length w.xs = m -> w
    | _ -> work_create m
  in
  {
    m;
    pr;
    pc;
    pivots;
    lmat;
    umat;
    step_of_row;
    step_of_pos;
    ut_start;
    ut_steps;
    lsteps;
    lu_nnz;
    etas = Support.Vec.create ();
    eta_nnz = 0;
    work;
  }

let n_etas t = Support.Vec.length t.etas

(* A fresh stamp: no index is marked with it yet. *)
let next_stamp w =
  w.stamp <- w.stamp + 1;
  w.stamp

(* Append [i] to [nz] unless it carries the stamp [s] already. *)
let nz_add w nz s i =
  if Array.unsafe_get w.mark i <> s then begin
    Array.unsafe_set w.mark i s;
    Array.unsafe_set nz.idx nz.count i;
    nz.count <- nz.count + 1
  end

(* Set the all-zero [b] to the sparse vector [entries] ((index, value)
   pairs; of a repeated index the last value stands) and [nz] to its
   index list. *)
let load t b nz entries =
  let w = t.work in
  let s = next_stamp w in
  nz.count <- 0;
  Array.iter
    (fun (i, v) ->
      b.(i) <- v;
      nz_add w nz s i)
    entries

(* The binary min-heap [w.heap.(0 .. heap_len-1)]. *)
let heap_push w x =
  let h = w.heap in
  let i = ref w.heap_len in
  w.heap_len <- w.heap_len + 1;
  while !i > 0 && Array.unsafe_get h ((!i - 1) / 2) > x do
    let p = (!i - 1) / 2 in
    Array.unsafe_set h !i (Array.unsafe_get h p);
    i := p
  done;
  Array.unsafe_set h !i x

let heap_pop w =
  let h = w.heap in
  let top = Array.unsafe_get h 0 in
  let n = w.heap_len - 1 in
  w.heap_len <- n;
  let x = Array.unsafe_get h n in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let c = (2 * !i) + 1 in
    if c >= n then continue := false
    else begin
      let c =
        if c + 1 < n && Array.unsafe_get h (c + 1) < Array.unsafe_get h c then
          c + 1
        else c
      in
      if Array.unsafe_get h c < x then begin
        Array.unsafe_set h !i (Array.unsafe_get h c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then Array.unsafe_set h !i x;
  top

(* Sort [a.(lo .. hi-1)] ascending in place. *)
let rec sort_ints a lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get a !j > x do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
    let pivot = max (min x y) (min (max x y) z) in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    sort_ints a lo (!j + 1);
    sort_ints a !i hi
  end

let sort_nz nz = sort_ints nz.idx 0 nz.count

(* Apply [f] to the indices of [nz] that satisfy [keep], in ascending
   order, for a vector of length [size].  The density rule, a fixed
   one: a list of more than 1/16 of the vector is not sorted; the whole
   vector is scanned in index order instead. *)
let iter_ascending nz size keep f =
  if 16 * nz.count > size then begin
    for i = 0 to size - 1 do
      if keep i then f i
    done
  end
  else begin
    sort_nz nz;
    for p = 0 to nz.count - 1 do
      let i = nz.idx.(p) in
      if keep i then f i
    done
  end

(* FTRAN: overwrite the dense row-space vector [b] with x = B^-1 b, in
   basis-position space. *)
let ftran t b =
  let m = t.m in
  let visits = ref (3 * m) in
  (* forward elimination: b := E b *)
  for k = 0 to m - 1 do
    let tv = Array.unsafe_get b t.pr.(k) in
    if tv <> 0. then begin
      let lm = t.lmat.(k) in
      visits := !visits + Array.length lm;
      for idx = 0 to Array.length lm - 1 do
        let r, mu = Array.unsafe_get lm idx in
        Array.unsafe_set b r (Array.unsafe_get b r -. (mu *. tv))
      done
    end
  done;
  (* back substitution: U xs = b, xs indexed by elimination step *)
  let xs = t.work.xs in
  for k = m - 1 downto 0 do
    let s = ref b.(t.pr.(k)) in
    let um = t.umat.(k) in
    visits := !visits + Array.length um;
    for idx = 0 to Array.length um - 1 do
      let l, u = Array.unsafe_get um idx in
      s := !s -. (u *. Array.unsafe_get xs l)
    done;
    xs.(k) <- !s /. t.pivots.(k)
  done;
  (* scatter into basis-position space *)
  for k = 0 to m - 1 do
    b.(t.pc.(k)) <- xs.(k)
  done;
  Array.fill xs 0 m 0.;
  (* eta file, oldest to newest *)
  Support.Vec.iter
    (fun e ->
      let xr = b.(e.e_r) /. e.e_wr in
      b.(e.e_r) <- xr;
      if xr <> 0. then begin
        visits := !visits + Array.length e.e_entries;
        Array.iter
          (fun (i, wi) -> b.(i) <- b.(i) -. (wi *. xr))
          e.e_entries
      end)
    t.etas;
  Support.Metrics.incr m_ftran;
  Support.Metrics.add m_entries !visits

(* Sparse FTRAN: as [ftran], for a [b] that is zero outside the rows
   listed in [nz].  On return [nz] lists the positions of the result. *)
let ftran_sparse t b nz =
  let w = t.work in
  let mark = w.mark in
  let visits = ref (nz.count + Array.length t.lsteps) in
  (* forward elimination over the steps with multipliers; fill-in rows
     join the list *)
  let s = next_stamp w in
  for p = 0 to nz.count - 1 do
    mark.(nz.idx.(p)) <- s
  done;
  Array.iter
    (fun k ->
      let tv = Array.unsafe_get b t.pr.(k) in
      if tv <> 0. then begin
        let lm = t.lmat.(k) in
        visits := !visits + Array.length lm;
        for idx = 0 to Array.length lm - 1 do
          let r, mu = Array.unsafe_get lm idx in
          Array.unsafe_set b r (Array.unsafe_get b r -. (mu *. tv));
          nz_add w nz s r
        done
      end)
    t.lsteps;
  (* back substitution over the reached steps, highest first (the heap
     holds m-1-k); a step is reached from its own row's nonzero or from
     a later step's nonzero through the transposed U pattern *)
  let s = next_stamp w in
  let m1 = t.m - 1 in
  for p = 0 to nz.count - 1 do
    let k = t.step_of_row.(nz.idx.(p)) in
    mark.(k) <- s;
    heap_push w (m1 - k)
  done;
  let xs = w.xs in
  let nreached = ref 0 in
  while w.heap_len > 0 do
    let k = m1 - heap_pop w in
    w.reached.(!nreached) <- k;
    incr nreached;
    let sum = ref (Array.unsafe_get b t.pr.(k)) in
    let um = t.umat.(k) in
    for idx = 0 to Array.length um - 1 do
      let l, u = Array.unsafe_get um idx in
      sum := !sum -. (u *. Array.unsafe_get xs l)
    done;
    let x = !sum /. t.pivots.(k) in
    xs.(k) <- x;
    let lo = t.ut_start.(k) and hi = t.ut_start.(k + 1) in
    visits := !visits + Array.length um + 1;
    if x <> 0. then begin
      visits := !visits + (hi - lo);
      for idx = lo to hi - 1 do
        let k' = Array.unsafe_get t.ut_steps idx in
        if Array.unsafe_get mark k' <> s then begin
          Array.unsafe_set mark k' s;
          heap_push w (m1 - k')
        end
      done
    end
  done;
  (* clear the row-space input, scatter into basis-position space *)
  for p = 0 to nz.count - 1 do
    b.(nz.idx.(p)) <- 0.
  done;
  let s = next_stamp w in
  nz.count <- 0;
  for idx = 0 to !nreached - 1 do
    let k = w.reached.(idx) in
    b.(t.pc.(k)) <- xs.(k);
    xs.(k) <- 0.;
    nz_add w nz s t.pc.(k)
  done;
  visits := !visits + !nreached;
  (* eta file, oldest to newest *)
  Support.Vec.iter
    (fun e ->
      let xr = b.(e.e_r) /. e.e_wr in
      b.(e.e_r) <- xr;
      if xr <> 0. then begin
        visits := !visits + Array.length e.e_entries;
        Array.iter
          (fun (i, wi) ->
            b.(i) <- b.(i) -. (wi *. xr);
            nz_add w nz s i)
          e.e_entries
      end)
    t.etas;
  Support.Metrics.incr m_ftran;
  Support.Metrics.add m_entries !visits

(* BTRAN: overwrite the dense basis-position-space vector [c] with the
   row-space solution y of y' B = c'. *)
let btran t c =
  let m = t.m in
  let visits = ref (3 * m) in
  (* eta file, newest to oldest: z_r = (c_r - sum_{i<>r} c_i w_i) / w_r *)
  for idx = Support.Vec.length t.etas - 1 downto 0 do
    let e = Support.Vec.get t.etas idx in
    let s = ref 0. in
    visits := !visits + Array.length e.e_entries;
    Array.iter (fun (i, wi) -> s := !s +. (c.(i) *. wi)) e.e_entries;
    c.(e.e_r) <- (c.(e.e_r) -. !s) /. e.e_wr
  done;
  (* U' v = c (forward over steps, scatter style) *)
  let accs = t.work.xs and v = t.work.vs in
  for k = 0 to m - 1 do
    accs.(k) <- c.(t.pc.(k))
  done;
  for k = 0 to m - 1 do
    let vk = accs.(k) /. t.pivots.(k) in
    v.(t.pr.(k)) <- vk;
    if vk <> 0. then begin
      let um = t.umat.(k) in
      visits := !visits + Array.length um;
      for idx = 0 to Array.length um - 1 do
        let l, u = Array.unsafe_get um idx in
        Array.unsafe_set accs l (Array.unsafe_get accs l -. (u *. vk))
      done
    end
  done;
  (* y = v E (apply the recorded row operations transposed, in reverse) *)
  for k = m - 1 downto 0 do
    let lm = t.lmat.(k) in
    if Array.length lm > 0 then begin
      let s = ref 0. in
      visits := !visits + Array.length lm;
      for idx = 0 to Array.length lm - 1 do
        let r, mu = Array.unsafe_get lm idx in
        s := !s +. (mu *. Array.unsafe_get v r)
      done;
      v.(t.pr.(k)) <- v.(t.pr.(k)) -. !s
    end
  done;
  Array.blit v 0 c 0 m;
  Array.fill accs 0 m 0.;
  Array.fill v 0 m 0.;
  Support.Metrics.incr m_btran;
  Support.Metrics.add m_entries !visits

(* Sparse BTRAN: as [btran], for a [c] that is zero outside the
   positions listed in [nz].  On return [nz] lists the rows of the
   result. *)
let btran_sparse t c nz =
  let w = t.work in
  let mark = w.mark in
  let visits = ref nz.count in
  (* eta file, newest to oldest; a replaced position that turns nonzero
     joins the list *)
  let s = next_stamp w in
  for p = 0 to nz.count - 1 do
    mark.(nz.idx.(p)) <- s
  done;
  for idx = Support.Vec.length t.etas - 1 downto 0 do
    let e = Support.Vec.get t.etas idx in
    let sum = ref 0. in
    visits := !visits + Array.length e.e_entries + 1;
    Array.iter (fun (i, wi) -> sum := !sum +. (c.(i) *. wi)) e.e_entries;
    let z = (c.(e.e_r) -. !sum) /. e.e_wr in
    c.(e.e_r) <- z;
    if z <> 0. then nz_add w nz s e.e_r
  done;
  (* U' v = c over the reached steps, lowest first, so that every
     accumulator takes its updates in increasing step order *)
  let s = next_stamp w in
  let accs = w.xs and v = w.vs in
  for p = 0 to nz.count - 1 do
    let pos = nz.idx.(p) in
    let k = t.step_of_pos.(pos) in
    accs.(k) <- c.(pos);
    c.(pos) <- 0.;
    mark.(k) <- s;
    heap_push w k
  done;
  let nreached = ref 0 in
  while w.heap_len > 0 do
    let k = heap_pop w in
    let vk = accs.(k) /. t.pivots.(k) in
    accs.(k) <- 0.;
    let row = t.pr.(k) in
    v.(row) <- vk;
    w.reached.(!nreached) <- row;
    incr nreached;
    incr visits;
    if vk <> 0. then begin
      let um = t.umat.(k) in
      visits := !visits + Array.length um;
      for idx = 0 to Array.length um - 1 do
        let l, u = Array.unsafe_get um idx in
        Array.unsafe_set accs l (Array.unsafe_get accs l -. (u *. vk));
        if Array.unsafe_get mark l <> s then begin
          Array.unsafe_set mark l s;
          heap_push w l
        end
      done
    end
  done;
  (* the reached rows are the list now *)
  let s = next_stamp w in
  nz.count <- 0;
  for idx = 0 to !nreached - 1 do
    nz_add w nz s w.reached.(idx)
  done;
  (* y = v E, over the steps with multipliers in reverse *)
  for li = Array.length t.lsteps - 1 downto 0 do
    let k = t.lsteps.(li) in
    let lm = t.lmat.(k) in
    let sum = ref 0. in
    visits := !visits + Array.length lm + 1;
    for idx = 0 to Array.length lm - 1 do
      let r, mu = Array.unsafe_get lm idx in
      sum := !sum +. (mu *. Array.unsafe_get v r)
    done;
    let row = t.pr.(k) in
    let y = v.(row) -. !sum in
    v.(row) <- y;
    if y <> 0. then nz_add w nz s row
  done;
  for p = 0 to nz.count - 1 do
    let row = nz.idx.(p) in
    c.(row) <- v.(row);
    v.(row) <- 0.
  done;
  visits := !visits + nz.count;
  Support.Metrics.incr m_btran;
  Support.Metrics.add m_entries !visits

let push_eta t ~r ~wr entries nnz =
  Support.Vec.push t.etas { e_r = r; e_wr = wr; e_entries = entries };
  t.eta_nnz <- t.eta_nnz + nnz + 1

(* Record the replacement of basis position [r] by the column whose
   FTRAN image is [w] (dense, position space).  [w] must be the image
   under the *current* factorization, i.e. computed before this call. *)
let update t ~r ~w =
  let wr = w.(r) in
  if Float.abs wr < abs_pivot_tol then raise Singular;
  let entries = ref [] in
  let nnz = ref 0 in
  for i = 0 to t.m - 1 do
    if i <> r && Float.abs w.(i) > drop_tol then begin
      entries := (i, w.(i)) :: !entries;
      incr nnz
    end
  done;
  push_eta t ~r ~wr (Array.of_list !entries) !nnz

(* As [update], for a [w] that is zero outside the positions listed in
   [nz] (which this may sort).  The entries come out in [update]'s
   order, descending position. *)
let update_sparse t ~r ~w nz =
  let wr = w.(r) in
  if Float.abs wr < abs_pivot_tol then raise Singular;
  let entries = ref [] in
  let nnz = ref 0 in
  iter_ascending nz t.m
    (fun i -> i <> r && Float.abs w.(i) > drop_tol)
    (fun i ->
      entries := (i, w.(i)) :: !entries;
      incr nnz);
  push_eta t ~r ~wr (Array.of_list !entries) !nnz

(* Heuristic refactorization trigger: the eta file has grown past the
   point where replaying it costs more than a fresh factorization. *)
let should_refactorize ?(max_etas = 100) t =
  n_etas t >= max_etas || t.eta_nnz > 2 * (t.lu_nnz + t.m)

let nnz t = t.lu_nnz + t.eta_nnz
