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
   (stored column-wise per elimination step, the L factor) and U is the
   sparse upper-triangular matrix of pivot rows (stored row-wise per
   step, with entries indexed by *elimination step* of their column).
   Both are CSR arrays: step k's entries are [l_row]/[l_mul] and
   [u_step]/[u_val] over [l_start.(k) .. l_start.(k+1) - 1] and
   [u_start.(k) .. u_start.(k+1) - 1].  Slack columns are unit vectors,
   and the structural columns of the allocation models are short, so the
   greedy singleton-first Markowitz order dissolves almost the whole
   basis with no fill-in; only a small "bump" needs real elimination
   (on AES, 10 770 of 387 198 pivots carry multipliers).  Little
   arithmetic is not little work, though: with thousands of singleton
   columns waiting, a selection that rescans its candidate bucket on
   every pivot is O(m^2) per factorization, so selection examines only
   the candidates it needs (see the bucket deque below), amortized O(1)
   per pivot.

   The active submatrix.  The entries live in a pool of flat row,
   column and value arrays in the per-instance [work], reused across
   refactorizations, so a refactorization allocates little beyond the
   factors it returns.  Each column holds an ordered array of its entry
   ids; a removal leaves a tombstone (the entry's row becomes -1), and a
   column more than half tombstones is compacted.  Each row holds a
   short ordered array of entry ids without tombstones (rows have at
   most 8 entries on AES, where columns reach 381), and an (i, j) entry
   is found by scanning row i.

   The order rule.  Ties in pivot selection, the order of each step's L
   entries and the order in which a pivot row eliminates its columns
   all follow the order of the row and column lists, so that order is
   part of the factorization's output: a different order re-rolls the
   simplex path and the B&B search (a reordering once took AES from 359
   to 3 428 nodes).  The order is the one the first implementation's
   per-row and per-column stdlib hash tables iterated in, kept so that every
   factor, pivot and search path stays as it was; this module now owns
   the list discipline, and only the bucket hash comes from the stdlib
   ([Hashtbl.hash], which allocates nothing on an int; no table is
   built).  Each list is sorted by bucket, [Hashtbl.hash key land (cap-1)]
   ascending (the key is the row index in a column list, the column
   index in a row list), and within a bucket the most recently inserted
   key comes first; a value update keeps its key's place.  [cap] starts
   at 16 and doubles whenever an insertion makes the live count exceed
   2 cap; the list then takes a stable re-sort under the new cap.
   The initial lists are built with a counting sort by bucket of the
   keys in newest-first insertion order: a column's rows in order of
   first appearance in its input (duplicates are summed in place, and
   a sum of zero stays an entry), a row's columns in ascending index.

   Column replacements are absorbed as product-form etas: replacing
   column r by a_q multiplies B on the right by the eta matrix E_r that
   is the identity except for column r = w, where w = B^-1 a_q (the
   FTRAN of the entering column, which the simplex iteration has already
   computed).  FTRAN applies the eta file oldest-to-newest after the LU
   solve; BTRAN applies it newest-to-oldest before the LU solve.  The
   eta file is flat too: per eta its position, pivot and start in one
   pair of index and value arrays.  The caller refactorizes
   periodically to keep the eta file short (the classic Forrest-Tomlin
   trade: cheap O(nnz) updates between refactorizations, a sparse
   refactorization every few dozen pivots).

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
   its U row in stored order, and each accumulator receives its updates
   in increasing step order, as in the dense loop.  The results
   therefore agree bit for bit, except that a zero may differ in sign. *)

exception Singular

(* The possibly-nonzero indices of a sparse vector: [idx.(0 .. count-1)],
   each index at most once, in no particular order.  Entries that
   cancelled to zero may stay listed; a nonzero is never left out. *)
type nz = { idx : int array; mutable count : int }

let nz_create m = { idx = Array.make m 0; count = 0 }

(* Scratch space of the factorization: the active submatrix, the pivot
   buckets and the factor buffers.  Every factorization starts by
   resetting what it reads, so one that raised [Singular] leaves the
   space reusable. *)
type fwork = {
  hash : int array; (* key -> [Hashtbl.hash key], rows and columns alike *)
  (* the entry pool *)
  mutable e_row : int array; (* -1 once removed from its column *)
  mutable e_col : int array;
  mutable e_val : float array;
  mutable n_ent : int;
  col_ids : int array array; (* column -> its entries, in list order *)
  col_len : int array; (* slots used in [col_ids], tombstones included *)
  col_cnt : int array; (* live entries *)
  col_cap : int array; (* bucket count of the order rule *)
  col_active : bool array;
  row_ids : int array array; (* row -> its entries, in list order *)
  row_cnt : int array;
  row_cap : int array;
  slot : int array; (* row -> its entry in the column being loaded *)
  (* pivot buckets, one per count 0 .. m *)
  bk_buf : int array array; (* circular; capacity 0 or a power of two *)
  bk_head : int array;
  bk_len : int array;
  bk_flip : bool array; (* the logical front is the physical back *)
  bk_risk : int array; (* top of the bucket's at-risk stack, or -1 *)
  mutable risk_col : int array; (* at-risk node -> column *)
  mutable risk_next : int array; (* at-risk node -> the node below *)
  mutable n_risk : int;
  (* bucket entries *)
  mutable be_col : int array;
  mutable be_bkt : int array;
  mutable be_dead : bool array;
  mutable be_next : int array; (* the column's next live bucket entry *)
  mutable n_be : int;
  chain : int array; (* column -> its first live bucket entry, or -1 *)
  mutable visited : int array; (* live bucket entries a scan popped *)
  mutable examined : int; (* bucket entries popped, dead or alive *)
  (* factor buffers and sort scratch *)
  mutable l_row : int array;
  mutable l_val : float array;
  mutable u_ent : int array; (* U entries as pool entries, remapped last *)
  mutable sort_cnt : int array;
  mutable sort_tmp : int array;
}

(* Scratch space of the solves and the factorization, kept by the caller
   across refactorizations.  [xs] and [vs] are all zero between calls;
   the dense solves, which overwrite them whole, zero them again after. *)
type work = {
  mark : int array; (* index -> stamp of the pass that listed it *)
  mutable stamp : int;
  heap : int array; (* binary min-heap of steps *)
  mutable heap_len : int;
  reached : int array; (* steps reached by a sparse solve, in order *)
  xs : float array; (* step space *)
  vs : float array; (* row space *)
  fw : fwork;
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
    fw =
      {
        hash = Array.init m Hashtbl.hash;
        e_row = [||];
        e_col = [||];
        e_val = [||];
        n_ent = 0;
        col_ids = Array.make m [||];
        col_len = Array.make m 0;
        col_cnt = Array.make m 0;
        col_cap = Array.make m 0;
        col_active = Array.make m false;
        row_ids = Array.make m [||];
        row_cnt = Array.make m 0;
        row_cap = Array.make m 0;
        slot = Array.make m (-1);
        bk_buf = Array.make (m + 1) [||];
        bk_head = Array.make (m + 1) 0;
        bk_len = Array.make (m + 1) 0;
        bk_flip = Array.make (m + 1) false;
        bk_risk = Array.make (m + 1) (-1);
        risk_col = [||];
        risk_next = [||];
        n_risk = 0;
        be_col = [||];
        be_bkt = [||];
        be_dead = [||];
        be_next = [||];
        n_be = 0;
        chain = Array.make m (-1);
        visited = [||];
        examined = 0;
        l_row = [||];
        l_val = [||];
        u_ent = [||];
        sort_cnt = [||];
        sort_tmp = [||];
      };
  }

type t = {
  m : int;
  pr : int array; (* elimination step -> pivot row *)
  pc : int array; (* elimination step -> pivot column (basis position) *)
  pivots : float array; (* elimination step -> pivot value *)
  l_start : int array; (* step -> start of its multipliers; m+1 long *)
  l_row : int array; (* multiplier -> row *)
  l_mul : float array;
  u_start : int array; (* step -> start of its U row; m+1 long *)
  u_step : int array; (* U entry -> the later step of its column *)
  u_val : float array;
  step_of_row : int array; (* inverse of [pr] *)
  step_of_pos : int array; (* inverse of [pc] *)
  ut_start : int array;
      (* transposed U pattern: the steps whose U row holds step l are
         [ut_steps.(ut_start.(l) .. ut_start.(l+1) - 1)] *)
  ut_steps : int array;
  lsteps : int array; (* steps with multipliers, ascending *)
  lu_nnz : int;
  (* the eta file: eta e replaced basis position [eta_r.(e)], its pivot
     is w_r = [eta_wr.(e)], and its entries (i, w_i), i <> r,
     |w_i| > drop, are [eta_idx]/[eta_val] over
     [eta_start.(e) .. eta_start.(e+1) - 1] *)
  mutable n_etas : int;
  mutable eta_r : int array;
  mutable eta_wr : float array;
  mutable eta_start : int array;
  mutable eta_idx : int array;
  mutable eta_val : float array;
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

(* [a], or a copy at least [need] long (doubling) padded with [fill]. *)
let grow a need fill =
  let n = Array.length a in
  if need <= n then a
  else begin
    let b = Array.make (max need (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

(* The order rule's bucket count for a list built with [n] keys. *)
let initial_cap n =
  let cap = ref 16 in
  while n > 2 * !cap do
    cap := 2 * !cap
  done;
  !cap

(* Sort [ids.(0 .. n-1)] stably by the bucket of their keys
   ([keys.(e)]) under [cap], with a counting sort. *)
let sort_by_bucket f keys ids n cap =
  if n > 1 then begin
    f.sort_tmp <- grow f.sort_tmp n 0;
    f.sort_cnt <- grow f.sort_cnt (cap + 1) 0;
    let src = f.sort_tmp and cnt = f.sort_cnt and mask = cap - 1 in
    Array.blit ids 0 src 0 n;
    Array.fill cnt 0 (cap + 1) 0;
    for p = 0 to n - 1 do
      let b = f.hash.(keys.(src.(p))) land mask in
      cnt.(b + 1) <- cnt.(b + 1) + 1
    done;
    for b = 1 to cap do
      cnt.(b) <- cnt.(b) + cnt.(b - 1)
    done;
    for p = 0 to n - 1 do
      let e = src.(p) in
      let b = f.hash.(keys.(e)) land mask in
      ids.(cnt.(b)) <- e;
      cnt.(b) <- cnt.(b) + 1
    done
  end

(* A new pool entry at (i, j); the caller sets its value. *)
let new_entry f i j =
  let e = f.n_ent in
  if e = Array.length f.e_row then begin
    f.e_row <- grow f.e_row (e + 1) 0;
    f.e_col <- grow f.e_col (e + 1) 0;
    f.e_val <- grow f.e_val (e + 1) 0.
  end;
  f.e_row.(e) <- i;
  f.e_col.(e) <- j;
  f.n_ent <- e + 1;
  e

(* Drop column [j]'s tombstones, keeping the order of the rest. *)
let compact f j =
  let ids = f.col_ids.(j) in
  let n = ref 0 in
  for p = 0 to f.col_len.(j) - 1 do
    let e = ids.(p) in
    if f.e_row.(e) >= 0 then begin
      ids.(!n) <- e;
      incr n
    end
  done;
  f.col_len.(j) <- !n

(* Remove entry [e] from column [j], leaving a tombstone. *)
let col_remove f j e =
  f.e_row.(e) <- -1;
  f.col_cnt.(j) <- f.col_cnt.(j) - 1;
  if 2 * f.col_cnt.(j) < f.col_len.(j) then compact f j

(* Insert entry [e], whose row is new to column [j], at the front of
   its bucket; an earlier tombstone right there takes it in place. *)
let col_insert f j e =
  let cap = f.col_cap.(j) in
  let mask = cap - 1 in
  let b = f.hash.(f.e_row.(e)) land mask in
  let len = f.col_len.(j) and ids = f.col_ids.(j) in
  let p = ref 0 in
  while
    !p < len
    &&
    let r = f.e_row.(ids.(!p)) in
    r < 0 || f.hash.(r) land mask < b
  do
    incr p
  done;
  let p = !p in
  if p > 0 && f.e_row.(ids.(p - 1)) < 0 then ids.(p - 1) <- e
  else begin
    let ids = grow ids (len + 1) 0 in
    f.col_ids.(j) <- ids;
    Array.blit ids p ids (p + 1) (len - p);
    ids.(p) <- e;
    f.col_len.(j) <- len + 1
  end;
  let cnt = f.col_cnt.(j) + 1 in
  f.col_cnt.(j) <- cnt;
  if cnt > 2 * cap then begin
    compact f j;
    f.col_cap.(j) <- 2 * cap;
    sort_by_bucket f f.e_row f.col_ids.(j) cnt (2 * cap)
  end

(* The position of column [j]'s entry in row [r]'s list, or -1. *)
let row_find f r j =
  let ids = f.row_ids.(r) and n = f.row_cnt.(r) in
  let p = ref 0 in
  while !p < n && f.e_col.(ids.(!p)) <> j do
    incr p
  done;
  if !p < n then !p else -1

let row_remove_at f r p =
  let ids = f.row_ids.(r) and n = f.row_cnt.(r) in
  Array.blit ids (p + 1) ids p (n - p - 1);
  f.row_cnt.(r) <- n - 1

(* Insert entry [e], whose column is new to row [r], at the front of
   its bucket. *)
let row_insert f r e =
  let cap = f.row_cap.(r) in
  let mask = cap - 1 in
  let b = f.hash.(f.e_col.(e)) land mask in
  let n = f.row_cnt.(r) in
  let ids = grow f.row_ids.(r) (n + 1) 0 in
  f.row_ids.(r) <- ids;
  let p = ref 0 in
  while !p < n && f.hash.(f.e_col.(ids.(!p))) land mask < b do
    incr p
  done;
  Array.blit ids !p ids (!p + 1) (n - !p);
  ids.(!p) <- e;
  f.row_cnt.(r) <- n + 1;
  if n + 1 > 2 * cap then begin
    f.row_cap.(r) <- 2 * cap;
    sort_by_bucket f f.e_col ids (n + 1) (2 * cap)
  end

(* Load the m x m active submatrix whose column j is [column j]: zero
   values skipped, duplicate rows summed into the first one's entry,
   every list in the order rule. *)
let load_active f m column =
  f.n_ent <- 0;
  for j = 0 to m - 1 do
    let first = f.n_ent in
    let col = column j in
    for p = 0 to Array.length col - 1 do
      let i, v = col.(p) in
      if v <> 0. then begin
        (* [slot.(i)] may be stale, from an earlier column or call *)
        let s = f.slot.(i) in
        if s >= first && s < f.n_ent && f.e_row.(s) = i then
          f.e_val.(s) <- f.e_val.(s) +. v
        else begin
          let e = new_entry f i j in
          f.e_val.(e) <- v;
          f.slot.(i) <- e
        end
      end
    done;
    let n = f.n_ent - first in
    let cap = initial_cap n in
    f.col_cnt.(j) <- n;
    f.col_len.(j) <- n;
    f.col_cap.(j) <- cap;
    f.col_active.(j) <- true;
    let ids = grow f.col_ids.(j) n 0 in
    f.col_ids.(j) <- ids;
    (* newest first *)
    for p = 0 to n - 1 do
      ids.(p) <- f.n_ent - 1 - p
    done;
    sort_by_bucket f f.e_row ids n cap
  done;
  (* a row's keys arrived in ascending column order, which is entry
     order, so filling from the last entry lists them newest first *)
  Array.fill f.row_cnt 0 m 0;
  for e = 0 to f.n_ent - 1 do
    let r = f.e_row.(e) in
    f.row_cnt.(r) <- f.row_cnt.(r) + 1
  done;
  for i = 0 to m - 1 do
    f.row_ids.(i) <- grow f.row_ids.(i) f.row_cnt.(i) 0;
    f.row_cap.(i) <- initial_cap f.row_cnt.(i);
    f.row_cnt.(i) <- 0
  done;
  for e = f.n_ent - 1 downto 0 do
    let r = f.e_row.(e) in
    f.row_ids.(r).(f.row_cnt.(r)) <- e;
    f.row_cnt.(r) <- f.row_cnt.(r) + 1
  done;
  for i = 0 to m - 1 do
    sort_by_bucket f f.e_col f.row_ids.(i) f.row_cnt.(i) f.row_cap.(i)
  done

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
   at-risk stack; the next scan of the bucket kills the column's
   entries there if it is still away or retired.  Those are exactly the
   entries the list filter would drop -- a column that left and came
   back before the scan keeps its entries, as under the filter.  Killed
   entries stay in the deque until a scan pops them.  Bucket entries
   and at-risk nodes are ints into pools in [fwork]; each column chains
   its live bucket entries through [be_next]. *)

(* Push bucket entry [be] at the logical front of bucket [c]. *)
let bucket_push f c be =
  let len = f.bk_len.(c) in
  let buf =
    let buf = f.bk_buf.(c) in
    let cap = Array.length buf in
    if len < cap then buf
    else begin
      let nbuf = Array.make (max 4 (2 * cap)) 0 in
      let head = f.bk_head.(c) in
      for k = 0 to len - 1 do
        nbuf.(k) <- buf.((head + k) land (cap - 1))
      done;
      f.bk_buf.(c) <- nbuf;
      f.bk_head.(c) <- 0;
      nbuf
    end
  in
  let mask = Array.length buf - 1 in
  if f.bk_flip.(c) then buf.((f.bk_head.(c) + len) land mask) <- be
  else begin
    let head = (f.bk_head.(c) - 1) land mask in
    f.bk_head.(c) <- head;
    buf.(head) <- be
  end;
  f.bk_len.(c) <- len + 1

(* Pop from the logical front of bucket [c], which must be non-empty. *)
let bucket_pop f c =
  let buf = f.bk_buf.(c) in
  let mask = Array.length buf - 1 in
  let len = f.bk_len.(c) - 1 in
  f.bk_len.(c) <- len;
  let head = f.bk_head.(c) in
  if f.bk_flip.(c) then buf.((head + len) land mask)
  else begin
    f.bk_head.(c) <- (head + 1) land mask;
    buf.(head)
  end

(* Count 0 is never scanned (and never left: an empty column takes no
   fill-in), so it gets no bucket entries. *)
let push_bucket f j =
  let c = f.col_cnt.(j) in
  if c >= 1 then begin
    let be = f.n_be in
    if be = Array.length f.be_col then begin
      f.be_col <- grow f.be_col (be + 1) 0;
      f.be_bkt <- grow f.be_bkt (be + 1) 0;
      f.be_dead <- grow f.be_dead (be + 1) false;
      f.be_next <- grow f.be_next (be + 1) 0
    end;
    f.be_col.(be) <- j;
    f.be_bkt.(be) <- c;
    f.be_dead.(be) <- false;
    f.be_next.(be) <- f.chain.(j);
    f.chain.(j) <- be;
    f.n_be <- be + 1;
    bucket_push f c be
  end

(* Column [j] left count [c], or was retired: it joins the bucket's
   at-risk stack. *)
let leave f j c =
  if c >= 1 then begin
    let n = f.n_risk in
    if n = Array.length f.risk_col then begin
      f.risk_col <- grow f.risk_col (n + 1) 0;
      f.risk_next <- grow f.risk_next (n + 1) 0
    end;
    f.risk_col.(n) <- j;
    f.risk_next.(n) <- f.bk_risk.(c);
    f.bk_risk.(c) <- n;
    f.n_risk <- n + 1
  end

(* Kill column [j]'s live entries in bucket [c]. *)
let kill f j c =
  let prev = ref (-1) and be = ref f.chain.(j) in
  while !be >= 0 do
    let next = f.be_next.(!be) in
    if f.be_bkt.(!be) = c then begin
      f.be_dead.(!be) <- true;
      if !prev < 0 then f.chain.(j) <- next else f.be_next.(!prev) <- next
    end
    else prev := !be;
    be := next
  done

(* Best (threshold-acceptable) pivot entry within column [j], or -1,
   preferring short rows then large values. *)
let best_in_col f j =
  let ids = f.col_ids.(j) and len = f.col_len.(j) in
  let colmax = ref 0. in
  for p = 0 to len - 1 do
    let e = ids.(p) in
    if f.e_row.(e) >= 0 then begin
      let av = Float.abs f.e_val.(e) in
      (* [Float.max]: a NaN wins *)
      if av > !colmax || av <> av then colmax := av
    end
  done;
  if !colmax < abs_pivot_tol then -1
  else begin
    let thresh = rel_pivot_tol *. !colmax in
    let bi = ref (-1) and bv = ref 0. and bc = ref max_int in
    for p = 0 to len - 1 do
      let e = ids.(p) in
      let i = f.e_row.(e) in
      if i >= 0 then begin
        let v = f.e_val.(e) in
        let av = Float.abs v in
        if av >= thresh then begin
          let rc = f.row_cnt.(i) in
          if rc < !bc || (rc = !bc && av > Float.abs !bv) then begin
            bi := e;
            bv := v;
            bc := rc
          end
        end
      end
    done;
    !bi
  end

(* Markowitz pivot selection: scan buckets in increasing column count,
   stop at the first zero-cost candidate or after a handful of
   candidates (partial pricing of pivots, GLPK-style).  Returns the
   pivot entry, or -1. *)
let select f m =
  let best = ref (-1) and best_cost = ref 0 in
  let ncand = ref 0 in
  let stop = ref false in
  let cnt = ref 1 in
  while (not !stop) && !cnt <= m do
    let c = !cnt in
    if f.bk_len.(c) > 0 then begin
      let node = ref f.bk_risk.(c) in
      while !node >= 0 do
        let j = f.risk_col.(!node) in
        if (not f.col_active.(j)) || f.col_cnt.(j) <> c then kill f j c;
        node := f.risk_next.(!node)
      done;
      f.bk_risk.(c) <- -1;
      f.visited <- grow f.visited f.bk_len.(c) 0;
      let nvisited = ref 0 in
      while (not !stop) && f.bk_len.(c) > 0 do
        let be = bucket_pop f c in
        f.examined <- f.examined + 1;
        if not f.be_dead.(be) then begin
          f.visited.(!nvisited) <- be;
          incr nvisited;
          let e = best_in_col f f.be_col.(be) in
          if e >= 0 then begin
            let cost = (c - 1) * (f.row_cnt.(f.e_row.(e)) - 1) in
            if !best < 0 || !best_cost > cost then begin
              best := e;
              best_cost := cost
            end;
            incr ncand;
            if cost = 0 || !ncand >= 4 then stop := true
          end
        end
      done;
      (* put the examined prefix back where it was, then reverse *)
      for p = !nvisited - 1 downto 0 do
        bucket_push f c f.visited.(p)
      done;
      f.bk_flip.(c) <- not f.bk_flip.(c)
    end
    else f.bk_risk.(c) <- -1;
    if !best >= 0 then stop := true;
    incr cnt
  done;
  !best

(* [factorize m column] factors the m x m matrix whose [j]-th column is
   the sparse vector [column j] (a (row, value) array).  Raises
   [Singular] when no acceptable pivot remains.  [work], the scratch
   space of an earlier factorization of the same size, is reused. *)
let factorize ?work m column =
  let work =
    match work with
    | Some w when Array.length w.xs = m -> w
    | _ -> work_create m
  in
  let f = work.fw in
  load_active f m column;
  Array.fill f.bk_head 0 (m + 1) 0;
  Array.fill f.bk_len 0 (m + 1) 0;
  Array.fill f.bk_flip 0 (m + 1) false;
  Array.fill f.bk_risk 0 (m + 1) (-1);
  Array.fill f.chain 0 m (-1);
  f.n_risk <- 0;
  f.n_be <- 0;
  f.examined <- 0;
  for j = 0 to m - 1 do
    push_bucket f j
  done;
  let pr = Array.make m (-1) in
  let pc = Array.make m (-1) in
  let pivots = Array.make m 0. in
  let l_start = Array.make (m + 1) 0 in
  let u_start = Array.make (m + 1) 0 in
  let nl = ref 0 and nu = ref 0 in
  for k = 0 to m - 1 do
    let ep = select f m in
    if ep < 0 then begin
      Support.Metrics.add m_candidates f.examined;
      raise Singular
    end;
    let i = f.e_row.(ep) and j = f.e_col.(ep) in
    let piv = f.e_val.(ep) in
    pr.(k) <- i;
    pc.(k) <- j;
    pivots.(k) <- piv;
    (* the multipliers: column j's other entries, last to first *)
    let ids = f.col_ids.(j) and len = f.col_len.(j) in
    f.l_row <- grow f.l_row (!nl + len) 0;
    f.l_val <- grow f.l_val (!nl + len) 0.;
    let l0 = !nl in
    for p = len - 1 downto 0 do
      let e = ids.(p) in
      let r = f.e_row.(e) in
      if r >= 0 && r <> i then begin
        f.l_row.(!nl) <- r;
        f.l_val.(!nl) <- f.e_val.(e) /. piv;
        incr nl
      end
    done;
    l_start.(k + 1) <- !nl;
    (* the U row: row i's other entries, last to first *)
    let rids = f.row_ids.(i) in
    f.u_ent <- grow f.u_ent (!nu + f.row_cnt.(i)) 0;
    let u0 = !nu in
    for p = f.row_cnt.(i) - 1 downto 0 do
      let e = rids.(p) in
      if f.e_col.(e) <> j then begin
        f.u_ent.(!nu) <- e;
        incr nu
      end
    done;
    u_start.(k + 1) <- !nu;
    (* retire the pivot column from the row index *)
    for p = 0 to len - 1 do
      let e = ids.(p) in
      let r = f.e_row.(e) in
      if r >= 0 && r <> i then begin
        let ids_r = f.row_ids.(r) in
        let q = ref 0 in
        while ids_r.(!q) <> e do
          incr q
        done;
        row_remove_at f r !q
      end
    done;
    f.col_active.(j) <- false;
    leave f j f.col_cnt.(j);
    (* eliminate the pivot row from every other active column *)
    for q = u0 to !nu - 1 do
      let eu = f.u_ent.(q) in
      let j' = f.e_col.(eu) in
      let u = f.e_val.(eu) in
      let c0 = f.col_cnt.(j') in
      col_remove f j' eu;
      for p = l0 to !nl - 1 do
        let r = f.l_row.(p) in
        let delta = -.(f.l_val.(p) *. u) in
        let pos = row_find f r j' in
        if pos >= 0 then begin
          let e = f.row_ids.(r).(pos) in
          let nv = f.e_val.(e) +. delta in
          if Float.abs nv <= drop_tol then begin
            col_remove f j' e;
            row_remove_at f r pos
          end
          else f.e_val.(e) <- nv
        end
        else if Float.abs delta > drop_tol then begin
          let e = new_entry f r j' in
          f.e_val.(e) <- delta;
          col_insert f j' e;
          row_insert f r e
        end
      done;
      if f.col_cnt.(j') <> c0 then leave f j' c0;
      push_bucket f j'
    done
  done;
  Support.Metrics.add m_candidates f.examined;
  let step_of_row = Array.make m 0 in
  let step_of_pos = Array.make m 0 in
  for k = 0 to m - 1 do
    step_of_row.(pr.(k)) <- k;
    step_of_pos.(pc.(k)) <- k
  done;
  let nl = !nl and nu = !nu in
  (* U entries from column ids to elimination steps, so back
     substitution indexes the step-space solution vector directly *)
  let u_step = Array.make nu 0 and u_val = Array.create_float nu in
  for q = 0 to nu - 1 do
    let e = f.u_ent.(q) in
    u_step.(q) <- step_of_pos.(f.e_col.(e));
    u_val.(q) <- f.e_val.(e)
  done;
  let ut_start = Array.make (m + 1) 0 in
  for q = 0 to nu - 1 do
    let l = u_step.(q) in
    ut_start.(l + 1) <- ut_start.(l + 1) + 1
  done;
  for l = 0 to m - 1 do
    ut_start.(l + 1) <- ut_start.(l + 1) + ut_start.(l)
  done;
  let ut_steps = Array.make nu 0 in
  let fill = Array.sub ut_start 0 m in
  for k = 0 to m - 1 do
    for q = u_start.(k) to u_start.(k + 1) - 1 do
      let l = u_step.(q) in
      ut_steps.(fill.(l)) <- k;
      fill.(l) <- fill.(l) + 1
    done
  done;
  let nsteps = ref 0 in
  for k = 0 to m - 1 do
    if l_start.(k + 1) > l_start.(k) then incr nsteps
  done;
  let lsteps = Array.make !nsteps 0 in
  nsteps := 0;
  for k = 0 to m - 1 do
    if l_start.(k + 1) > l_start.(k) then begin
      lsteps.(!nsteps) <- k;
      incr nsteps
    end
  done;
  {
    m;
    pr;
    pc;
    pivots;
    l_start;
    l_row = Array.sub f.l_row 0 nl;
    l_mul = Array.sub f.l_val 0 nl;
    u_start;
    u_step;
    u_val;
    step_of_row;
    step_of_pos;
    ut_start;
    ut_steps;
    lsteps;
    lu_nnz = m + nl + nu;
    n_etas = 0;
    eta_r = [||];
    eta_wr = [||];
    eta_start = [| 0 |];
    eta_idx = [||];
    eta_val = [||];
    work;
  }

let n_etas t = t.n_etas

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

(* The density rule, a fixed one: a list of more than 1/16 of its
   vector (of length [size]) is not sorted; the whole vector is scanned
   in index order instead. *)
let dense_list nz size = 16 * nz.count > size

(* Apply [f] to the indices of [nz] that satisfy [keep], in ascending
   order, for a vector of length [size], by the density rule. *)
let iter_ascending nz size keep f =
  if dense_list nz size then begin
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
      let lo = t.l_start.(k) and hi = t.l_start.(k + 1) in
      visits := !visits + (hi - lo);
      for p = lo to hi - 1 do
        let r = Array.unsafe_get t.l_row p in
        Array.unsafe_set b r
          (Array.unsafe_get b r -. (Array.unsafe_get t.l_mul p *. tv))
      done
    end
  done;
  (* back substitution: U xs = b, xs indexed by elimination step *)
  let xs = t.work.xs in
  for k = m - 1 downto 0 do
    let s = ref b.(t.pr.(k)) in
    let lo = t.u_start.(k) and hi = t.u_start.(k + 1) in
    visits := !visits + (hi - lo);
    for p = lo to hi - 1 do
      s :=
        !s
        -. Array.unsafe_get t.u_val p
           *. Array.unsafe_get xs (Array.unsafe_get t.u_step p)
    done;
    xs.(k) <- !s /. t.pivots.(k)
  done;
  (* scatter into basis-position space *)
  for k = 0 to m - 1 do
    b.(t.pc.(k)) <- xs.(k)
  done;
  Array.fill xs 0 m 0.;
  (* eta file, oldest to newest *)
  for e = 0 to t.n_etas - 1 do
    let r = t.eta_r.(e) in
    let xr = b.(r) /. t.eta_wr.(e) in
    b.(r) <- xr;
    if xr <> 0. then begin
      let lo = t.eta_start.(e) and hi = t.eta_start.(e + 1) in
      visits := !visits + (hi - lo);
      for p = lo to hi - 1 do
        let i = Array.unsafe_get t.eta_idx p in
        Array.unsafe_set b i
          (Array.unsafe_get b i -. (Array.unsafe_get t.eta_val p *. xr))
      done
    end
  done;
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
  for li = 0 to Array.length t.lsteps - 1 do
    let k = t.lsteps.(li) in
    let tv = Array.unsafe_get b t.pr.(k) in
    if tv <> 0. then begin
      let lo = t.l_start.(k) and hi = t.l_start.(k + 1) in
      visits := !visits + (hi - lo);
      for p = lo to hi - 1 do
        let r = Array.unsafe_get t.l_row p in
        Array.unsafe_set b r
          (Array.unsafe_get b r -. (Array.unsafe_get t.l_mul p *. tv));
        nz_add w nz s r
      done
    end
  done;
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
    let ulo = t.u_start.(k) and uhi = t.u_start.(k + 1) in
    for p = ulo to uhi - 1 do
      sum :=
        !sum
        -. Array.unsafe_get t.u_val p
           *. Array.unsafe_get xs (Array.unsafe_get t.u_step p)
    done;
    let x = !sum /. t.pivots.(k) in
    xs.(k) <- x;
    let lo = t.ut_start.(k) and hi = t.ut_start.(k + 1) in
    visits := !visits + (uhi - ulo) + 1;
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
  for e = 0 to t.n_etas - 1 do
    let r = t.eta_r.(e) in
    let xr = b.(r) /. t.eta_wr.(e) in
    b.(r) <- xr;
    if xr <> 0. then begin
      let lo = t.eta_start.(e) and hi = t.eta_start.(e + 1) in
      visits := !visits + (hi - lo);
      for p = lo to hi - 1 do
        let i = Array.unsafe_get t.eta_idx p in
        Array.unsafe_set b i
          (Array.unsafe_get b i -. (Array.unsafe_get t.eta_val p *. xr));
        nz_add w nz s i
      done
    end
  done;
  Support.Metrics.incr m_ftran;
  Support.Metrics.add m_entries !visits

(* BTRAN: overwrite the dense basis-position-space vector [c] with the
   row-space solution y of y' B = c'. *)
let btran t c =
  let m = t.m in
  let visits = ref (3 * m) in
  (* eta file, newest to oldest: z_r = (c_r - sum_{i<>r} c_i w_i) / w_r *)
  for e = t.n_etas - 1 downto 0 do
    let lo = t.eta_start.(e) and hi = t.eta_start.(e + 1) in
    let s = ref 0. in
    visits := !visits + (hi - lo);
    for p = lo to hi - 1 do
      s :=
        !s
        +. Array.unsafe_get c (Array.unsafe_get t.eta_idx p)
           *. Array.unsafe_get t.eta_val p
    done;
    let r = t.eta_r.(e) in
    c.(r) <- (c.(r) -. !s) /. t.eta_wr.(e)
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
      let lo = t.u_start.(k) and hi = t.u_start.(k + 1) in
      visits := !visits + (hi - lo);
      for p = lo to hi - 1 do
        let l = Array.unsafe_get t.u_step p in
        Array.unsafe_set accs l
          (Array.unsafe_get accs l -. (Array.unsafe_get t.u_val p *. vk))
      done
    end
  done;
  (* y = v E (apply the recorded row operations transposed, in reverse) *)
  for k = m - 1 downto 0 do
    let lo = t.l_start.(k) and hi = t.l_start.(k + 1) in
    if hi > lo then begin
      let s = ref 0. in
      visits := !visits + (hi - lo);
      for p = lo to hi - 1 do
        s :=
          !s
          +. Array.unsafe_get t.l_mul p
             *. Array.unsafe_get v (Array.unsafe_get t.l_row p)
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
  for e = t.n_etas - 1 downto 0 do
    let lo = t.eta_start.(e) and hi = t.eta_start.(e + 1) in
    let sum = ref 0. in
    visits := !visits + (hi - lo) + 1;
    for p = lo to hi - 1 do
      sum :=
        !sum
        +. Array.unsafe_get c (Array.unsafe_get t.eta_idx p)
           *. Array.unsafe_get t.eta_val p
    done;
    let r = t.eta_r.(e) in
    let z = (c.(r) -. !sum) /. t.eta_wr.(e) in
    c.(r) <- z;
    if z <> 0. then nz_add w nz s r
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
      let lo = t.u_start.(k) and hi = t.u_start.(k + 1) in
      visits := !visits + (hi - lo);
      for p = lo to hi - 1 do
        let l = Array.unsafe_get t.u_step p in
        Array.unsafe_set accs l
          (Array.unsafe_get accs l -. (Array.unsafe_get t.u_val p *. vk));
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
    let lo = t.l_start.(k) and hi = t.l_start.(k + 1) in
    let sum = ref 0. in
    visits := !visits + (hi - lo) + 1;
    for p = lo to hi - 1 do
      sum :=
        !sum
        +. Array.unsafe_get t.l_mul p
           *. Array.unsafe_get v (Array.unsafe_get t.l_row p)
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

(* The eta file's entries, each eta counting one more for its pivot. *)
let eta_nnz t = t.eta_start.(t.n_etas) + t.n_etas

(* The [e]-th eta, oldest first: (r, w_r, its (i, w_i) entries). *)
let eta t e =
  let lo = t.eta_start.(e) in
  ( t.eta_r.(e),
    t.eta_wr.(e),
    Array.init
      (t.eta_start.(e + 1) - lo)
      (fun p -> (t.eta_idx.(lo + p), t.eta_val.(lo + p))) )

(* Make room for one more eta of at most [room] entries; returns where
   its entries start. *)
let eta_reserve t room =
  let n = t.n_etas in
  t.eta_r <- grow t.eta_r (n + 1) 0;
  t.eta_wr <- grow t.eta_wr (n + 1) 0.;
  t.eta_start <- grow t.eta_start (n + 2) 0;
  let lo = t.eta_start.(n) in
  t.eta_idx <- grow t.eta_idx (lo + room) 0;
  t.eta_val <- grow t.eta_val (lo + room) 0.;
  lo

(* Record entry (i, w_i) of the eta being written at [p]. *)
let eta_add t w r p i =
  if i <> r && Float.abs w.(i) > drop_tol then begin
    t.eta_idx.(p) <- i;
    t.eta_val.(p) <- w.(i);
    p + 1
  end
  else p

(* Close the eta being written: it replaced position [r] of pivot
   [w.(r)], and its entries end before [hi]. *)
let eta_close t w r hi =
  let n = t.n_etas in
  t.eta_r.(n) <- r;
  t.eta_wr.(n) <- w.(r);
  t.eta_start.(n + 1) <- hi;
  t.n_etas <- n + 1

(* Record the replacement of basis position [r] by the column whose
   FTRAN image is [w] (dense, position space).  [w] must be the image
   under the *current* factorization, i.e. computed before this call.
   The entries are stored by descending position. *)
let update t ~r ~w =
  if Float.abs w.(r) < abs_pivot_tol then raise Singular;
  let p = ref (eta_reserve t t.m) in
  for i = t.m - 1 downto 0 do
    p := eta_add t w r !p i
  done;
  eta_close t w r !p

(* As [update], for a [w] that is zero outside the positions listed in
   [nz] (which this may sort), by the density rule. *)
let update_sparse t ~r ~w nz =
  if dense_list nz t.m then update t ~r ~w
  else begin
    if Float.abs w.(r) < abs_pivot_tol then raise Singular;
    sort_nz nz;
    let p = ref (eta_reserve t nz.count) in
    for q = nz.count - 1 downto 0 do
      p := eta_add t w r !p nz.idx.(q)
    done;
    eta_close t w r !p
  end

(* Heuristic refactorization trigger: the eta file has grown past the
   point where replaying it costs more than a fresh factorization. *)
let should_refactorize ?(max_etas = 100) t =
  t.n_etas >= max_etas || eta_nnz t > 2 * (t.lu_nnz + t.m)
