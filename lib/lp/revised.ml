(* Production LP solver: bounded-variable revised dual simplex on a
   sparse LU-factored basis (see [Sparse_lu]) with sparse columns.

   Why dual simplex: the register-allocation MIPs have nonnegative move
   costs, so the all-slack basis with every structural variable at a
   dual-feasible bound is immediately dual feasible -- no phase 1 is ever
   needed.  Branch and bound only ever changes variable bounds, which
   preserves dual feasibility of the current basis, so node re-solves are
   warm-started for free.

   Warm restarts after bound changes are fully incremental: duals do not
   depend on bound values at all, so a bound change on a nonbasic
   variable only requires (a) re-checking which bound that one variable
   should sit at (using the maintained reduced cost) and (b) shifting
   x_B by one FTRAN column per net value change.  No global dual rescan
   ever happens between branch-and-bound nodes.

   Internal form: every row [a_i x (sense) b_i] becomes [a_i x + s_i = b_i]
   with slack bounds
       Le: s_i in [0, +inf)    Ge: s_i in (-inf, 0]    Eq: s_i in [0, 0].

   Requirements (checked at [create]): every structural variable must have
   at least one finite bound, and a finite bound on the side demanded by
   the sign of its objective coefficient (so that an initial dual-feasible
   placement exists).  The 0-1 models satisfy this trivially. *)

type status = Optimal | Infeasible | Iteration_limit

(* Leaving-row pricing rule.  [Devex] (Forrest-Goldfarb reference-
   framework weights, the dual variant) approximates steepest-edge
   pricing at the cost of one O(m) sweep per pivot and typically cuts
   iteration counts well below Dantzig-style most-infeasible selection
   on the degenerate, near-symmetric bank-assignment MIPs.  [Dantzig]
   keeps the old most-infeasible rule as a fallback. *)
type pricing = Dantzig | Devex

type t = {
  n : int; (* structural variables *)
  m : int; (* rows = slack variables *)
  cost : float array; (* length n+m; slacks cost 0 *)
  lo : float array; (* length n+m, mutable via set_bounds *)
  hi : float array;
  cols : (int * float) array array; (* sparse column per variable *)
  row_start : int array;
      (* row-wise copy of [cols]: row i holds (row_col.(p), row_val.(p))
         for p in [row_start.(i), row_start.(i+1)), by ascending column *)
  row_col : int array;
  row_val : float array;
  rhs : float array; (* length m *)
  mutable lu : Sparse_lu.t; (* factored basis *)
  basis : int array; (* length m: variable in basis position i *)
  in_basis : int array; (* var -> basis position, or -1 *)
  at_upper : bool array; (* nonbasic status; meaningful when not basic *)
  xb : float array; (* values of basic variables *)
  dvals : float array; (* reduced costs, maintained incrementally *)
  mutable dvals_fresh : bool;
  mutable xb_fresh : bool;
  (* cheap-restart queue: (nonbasic var, its value before the bound
     change); the basis and duals are unaffected by bound changes, so
     only these variables need their placement re-checked and x_B
     shifted by one FTRAN column each *)
  mutable bound_deltas : (int * float) list;
  queued : bool array; (* length n: the variable is in [bound_deltas] *)
  rho : float array;
      (* workspace: BTRAN pivot row, length m, zero between uses *)
  rho_nz : Sparse_lu.nz; (* its nonzero rows *)
  wcol : float array;
      (* workspace: FTRAN entering column, length m, zero between uses *)
  wcol_nz : Sparse_lu.nz; (* its nonzero positions *)
  duals : float array; (* workspace: BTRAN of the basic costs, length m *)
  alphas : float array;
      (* workspace: pivot-row entries, length n+m, zero outside
         [touched] and zero between iterations *)
  touched : Sparse_lu.nz; (* columns with a pivot-row term *)
  col_mark : bool array; (* length n+m: the column is in [touched] *)
  pricing : pricing;
  dw : float array; (* devex reference weights, one per basis row *)
  mutable iters : int;
  mutable total_iters : int;
  mutable factorizations : int;
}

let feas_tol = 1e-7
let dual_tol = 1e-7
let pivot_tol = 1e-9

let create ?(pricing = Devex) (p : Problem.t) =
  let n = Problem.num_vars p in
  let m = Problem.num_rows p in
  let nm = n + m in
  let cost = Array.make nm 0. in
  let lo = Array.make nm 0. in
  let hi = Array.make nm 0. in
  let cols = Array.make nm [||] in
  let rhs = Array.make m 0. in
  for j = 0 to n - 1 do
    cost.(j) <- Problem.var_obj p j;
    lo.(j) <- Problem.var_lo p j;
    hi.(j) <- Problem.var_hi p j;
    if Float.is_finite lo.(j) = false && Float.is_finite hi.(j) = false then
      invalid_arg "Revised.create: free variables are not supported";
    if cost.(j) > 0. && not (Float.is_finite lo.(j)) then
      invalid_arg "Revised.create: positive cost needs a finite lower bound";
    if cost.(j) < 0. && not (Float.is_finite hi.(j)) then
      invalid_arg "Revised.create: negative cost needs a finite upper bound"
  done;
  (* Build structural columns row-wise then transpose. *)
  let col_build = Array.make n [] in
  let rows = ref [] in
  Problem.iter_rows (fun r -> rows := r :: !rows) p;
  let rows = Array.of_list (List.rev !rows) in
  Array.iteri
    (fun i (r : Problem.row) ->
      rhs.(i) <- r.rhs;
      (match r.sense with
      | Problem.Le ->
          lo.(n + i) <- 0.;
          hi.(n + i) <- infinity
      | Problem.Ge ->
          lo.(n + i) <- neg_infinity;
          hi.(n + i) <- 0.
      | Problem.Eq ->
          lo.(n + i) <- 0.;
          hi.(n + i) <- 0.);
      List.iter (fun (v, c) -> col_build.(v) <- (i, c) :: col_build.(v)) r.terms)
    rows;
  for j = 0 to n - 1 do
    cols.(j) <- Array.of_list (List.rev col_build.(j))
  done;
  for i = 0 to m - 1 do
    cols.(n + i) <- [| (i, 1.0) |]
  done;
  let row_start = Array.make (m + 1) 0 in
  Array.iter
    (Array.iter (fun (i, _) -> row_start.(i + 1) <- row_start.(i + 1) + 1))
    cols;
  for i = 0 to m - 1 do
    row_start.(i + 1) <- row_start.(i + 1) + row_start.(i)
  done;
  let row_col = Array.make row_start.(m) 0 in
  let row_val = Array.make row_start.(m) 0. in
  let fill = Array.sub row_start 0 m in
  Array.iteri
    (fun j col ->
      Array.iter
        (fun (i, c) ->
          row_col.(fill.(i)) <- j;
          row_val.(fill.(i)) <- c;
          fill.(i) <- fill.(i) + 1)
        col)
    cols;
  let basis = Array.init m (fun i -> n + i) in
  let in_basis = Array.make nm (-1) in
  for i = 0 to m - 1 do
    in_basis.(n + i) <- i
  done;
  let at_upper = Array.make nm false in
  for j = 0 to n - 1 do
    (* Dual-feasible initial placement. *)
    if cost.(j) < 0. then at_upper.(j) <- true
    else if not (Float.is_finite lo.(j)) then at_upper.(j) <- true
  done;
  (* All-slack basis: the identity factors trivially. *)
  let lu = Sparse_lu.factorize m (fun i -> cols.(basis.(i))) in
  {
    n; m; cost; lo; hi; cols; row_start; row_col; row_val; rhs; lu; basis;
    in_basis; at_upper;
    xb = Array.make m 0.;
    dvals = Array.make nm 0.;
    dvals_fresh = false;
    xb_fresh = false;
    bound_deltas = [];
    queued = Array.make n false;
    rho = Array.make m 0.;
    rho_nz = Sparse_lu.nz_create m;
    wcol = Array.make m 0.;
    wcol_nz = Sparse_lu.nz_create m;
    duals = Array.make m 0.;
    alphas = Array.make nm 0.;
    touched = Sparse_lu.nz_create nm;
    col_mark = Array.make nm false;
    pricing;
    dw = Array.make m 1.;
    iters = 0;
    total_iters = 0;
    factorizations = 0;
  }

let nonbasic_value t j = if t.at_upper.(j) then t.hi.(j) else t.lo.(j)

(* Resolved once at module initialization; [Metrics.reset] keeps the
   handle valid. *)
let m_refactorizations = Support.Metrics.counter "lp.lu.refactorizations"

let refactorize t =
  t.factorizations <- t.factorizations + 1;
  Support.Metrics.incr m_refactorizations;
  match
    Sparse_lu.factorize ~work:t.lu.Sparse_lu.work t.m (fun i ->
        t.cols.(t.basis.(i)))
  with
  | lu -> t.lu <- lu
  | exception Sparse_lu.Singular -> failwith "Revised.refactorize: singular basis"

(* Recompute x_B = Binv (b - N x_N) from scratch. *)
let recompute_xb t =
  Array.blit t.rhs 0 t.xb 0 t.m;
  for j = 0 to t.n + t.m - 1 do
    if t.in_basis.(j) < 0 then begin
      let xj = nonbasic_value t j in
      if xj <> 0. then
        Array.iter (fun (i, c) -> t.xb.(i) <- t.xb.(i) -. (c *. xj)) t.cols.(j)
    end
  done;
  Sparse_lu.ftran t.lu t.xb;
  t.xb_fresh <- true

(* Dual values and reduced costs for all variables, from one BTRAN. *)
let refresh_dvals t =
  let y = t.duals in
  for i = 0 to t.m - 1 do
    y.(i) <- t.cost.(t.basis.(i))
  done;
  Sparse_lu.btran t.lu y;
  for j = 0 to t.n + t.m - 1 do
    if t.in_basis.(j) >= 0 then t.dvals.(j) <- 0.
    else begin
      let d = ref t.cost.(j) in
      Array.iter (fun (i, c) -> d := !d -. (y.(i) *. c)) t.cols.(j);
      t.dvals.(j) <- !d
    end
  done;
  t.dvals_fresh <- true

(* Re-check which bound a single nonbasic variable should sit at, after
   its bounds changed.  Duals are untouched by bound changes, so the
   maintained reduced cost decides; an infinite current side forces a
   move regardless of the sign. *)
let fix_placement t j =
  if t.in_basis.(j) < 0 then begin
    let d = t.dvals.(j) in
    if t.at_upper.(j) && not (Float.is_finite t.hi.(j)) then
      t.at_upper.(j) <- false
    else if (not t.at_upper.(j)) && not (Float.is_finite t.lo.(j)) then
      t.at_upper.(j) <- true
    else if t.lo.(j) < t.hi.(j) -. 1e-15 then begin
      if (not t.at_upper.(j)) && d < -.dual_tol && Float.is_finite t.hi.(j)
      then t.at_upper.(j) <- true
      else if t.at_upper.(j) && d > dual_tol && Float.is_finite t.lo.(j) then
        t.at_upper.(j) <- false
    end
  end

(* FTRAN of the sparse column of variable [q] into the [wcol] workspace
   and its nonzero list; [clear_col] zeroes it again after use. *)
let ftran_col t q =
  Sparse_lu.load t.lu t.wcol t.wcol_nz t.cols.(q);
  Sparse_lu.ftran_sparse t.lu t.wcol t.wcol_nz

let clear_col t =
  let nz = t.wcol_nz in
  for p = 0 to nz.count - 1 do
    t.wcol.(nz.idx.(p)) <- 0.
  done;
  nz.count <- 0

let set_bounds t j ~lo ~hi =
  if j < 0 || j >= t.n then invalid_arg "Revised.set_bounds";
  (* Record the pre-change value once per variable: several changes
     between two solves must not double-count the x_B shift, and only
     the OLDEST value matters. *)
  if t.in_basis.(j) < 0 && not t.queued.(j) then begin
    t.queued.(j) <- true;
    t.bound_deltas <- (j, nonbasic_value t j) :: t.bound_deltas
  end;
  t.lo.(j) <- lo;
  t.hi.(j) <- hi

let bounds t j =
  if j < 0 || j >= t.n then invalid_arg "Revised.bounds";
  (t.lo.(j), t.hi.(j))

exception Done of status

(* Pivot row: alpha_j = sum_i rho_i a_ij, added over the nonzero rho_i
   in ascending row order -- each column's entries are in ascending row
   order, so every alpha_j gets the terms of a full column dot product,
   in the same order, less the exact zeros.  Columns with a term land in
   [touched]; the basic ones among them are computed and not read. *)
let pivot_row t =
  let rho = t.rho and alphas = t.alphas in
  let touched = t.touched in
  Sparse_lu.iter_ascending t.rho_nz t.m
    (fun i -> Array.unsafe_get rho i <> 0.)
    (fun i ->
      let ri = Array.unsafe_get rho i in
      for p = t.row_start.(i) to t.row_start.(i + 1) - 1 do
        let j = Array.unsafe_get t.row_col p in
        Array.unsafe_set alphas j
          (Array.unsafe_get alphas j +. (ri *. Array.unsafe_get t.row_val p));
        if not (Array.unsafe_get t.col_mark j) then begin
          Array.unsafe_set t.col_mark j true;
          touched.idx.(touched.count) <- j;
          touched.count <- touched.count + 1
        end
      done)

(* Zero [rho] and [alphas] again for the next iteration. *)
let clear_pivot_row t =
  let nz = t.rho_nz in
  for p = 0 to nz.count - 1 do
    t.rho.(nz.idx.(p)) <- 0.
  done;
  nz.count <- 0;
  let touched = t.touched in
  for p = 0 to touched.count - 1 do
    let j = touched.idx.(p) in
    t.alphas.(j) <- 0.;
    t.col_mark.(j) <- false
  done;
  touched.count <- 0

let solve ?(max_iters = 200_000) t =
  if not t.dvals_fresh then refresh_dvals t;
  (* Incremental restart: re-place the variables whose bounds changed,
     then shift x_B by the net value changes (one FTRAN each). *)
  if t.xb_fresh then
    List.iter
      (fun (j, old_value) ->
        if t.in_basis.(j) < 0 then begin
          fix_placement t j;
          let new_value = nonbasic_value t j in
          let delta = new_value -. old_value in
          if Float.abs delta > 1e-13 then begin
            ftran_col t j;
            let nz = t.wcol_nz in
            for p = 0 to nz.count - 1 do
              let i = nz.idx.(p) in
              t.xb.(i) <- t.xb.(i) -. (delta *. t.wcol.(i))
            done;
            clear_col t
          end
        end)
      t.bound_deltas
  else begin
    List.iter (fun (j, _) -> fix_placement t j) t.bound_deltas;
    recompute_xb t
  end;
  List.iter (fun (j, _) -> t.queued.(j) <- false) t.bound_deltas;
  t.bound_deltas <- [];
  t.iters <- 0;
  let nm = t.n + t.m in
  let alphas = t.alphas in
  (try
     while true do
       if t.iters >= max_iters then raise (Done Iteration_limit);
       t.iters <- t.iters + 1;
       t.total_iters <- t.total_iters + 1;
       if Sparse_lu.should_refactorize t.lu then begin
         refactorize t;
         recompute_xb t;
         refresh_dvals t
       end;
       (* Leaving variable: among primal-infeasible basic variables,
          Dantzig takes the worst infeasibility; Devex scores each row
          by infeasibility^2 / weight, the reference-framework estimate
          of infeasibility per unit of (dual) edge length. *)
       let r = ref (-1) in
       let best_score = ref 0. in
       let sigma = ref 1.0 in
       for i = 0 to t.m - 1 do
         let v = Array.unsafe_get t.basis i in
         let x = Array.unsafe_get t.xb i in
         let infeas, s =
           if x > t.hi.(v) +. feas_tol then (x -. t.hi.(v), 1.0)
           else if x < t.lo.(v) -. feas_tol then (t.lo.(v) -. x, -1.0)
           else (0., 0.)
         in
         if infeas > feas_tol then begin
           let score =
             match t.pricing with
             | Dantzig -> infeas
             | Devex -> infeas *. infeas /. Array.unsafe_get t.dw i
           in
           if score > !best_score then begin
             r := i;
             best_score := score;
             sigma := s
           end
         end
       done;
       if !r < 0 then raise (Done Optimal);
       let r = !r and sigma = !sigma in
       (* Pivot row of Binv: rho = e_r' Binv via one sparse BTRAN. *)
       let rho = t.rho in
       rho.(r) <- 1.0;
       t.rho_nz.idx.(0) <- r;
       t.rho_nz.count <- 1;
       Sparse_lu.btran_sparse t.lu rho t.rho_nz;
       pivot_row t;
       (* Ratio test over the nonbasic columns with a pivot-row term, in
          ascending column order (the tie-break depends on it); a column
          without one has alpha = 0 and is not eligible.  The alphas stay
          for the incremental dual update. *)
       let best_j = ref (-1) in
       let best_ratio = ref infinity in
       let best_alpha = ref 0. in
       Sparse_lu.iter_ascending t.touched nm
         (fun j ->
           Array.unsafe_get t.col_mark j && Array.unsafe_get t.in_basis j < 0)
         (fun j ->
           let alpha = Array.unsafe_get alphas j in
           if t.lo.(j) < t.hi.(j) -. 1e-15 then begin
             let a = sigma *. alpha in
             let eligible =
               if t.at_upper.(j) then a < -.pivot_tol else a > pivot_tol
             in
             if eligible then begin
               let d = Array.unsafe_get t.dvals j in
               let ratio = Float.abs (d /. a) in
               if
                 ratio < !best_ratio -. 1e-12
                 || (ratio < !best_ratio +. 1e-12
                    && Float.abs a > Float.abs !best_alpha)
               then begin
                 best_j := j;
                 best_ratio := ratio;
                 best_alpha := alpha
               end
             end
           end);
       if !best_j < 0 then begin
         clear_pivot_row t;
         raise (Done Infeasible)
       end;
       let q = !best_j in
       (* Full entering column. *)
       ftran_col t q;
       let w = t.wcol in
       let w_nz = t.wcol_nz in
       if Float.abs w.(r) < pivot_tol then begin
         (* The FTRAN image disagrees with the BTRAN-side alpha: the
            factors have drifted.  Refactorize and redo the iteration. *)
         clear_col t;
         clear_pivot_row t;
         if Sparse_lu.n_etas t.lu = 0 then
           failwith "Revised.solve: numerically singular pivot";
         refactorize t;
         recompute_xb t;
         refresh_dvals t
       end
       else begin
         (* incremental dual update: d_j -= (d_q / alpha_q) * alpha_j *)
         let theta = t.dvals.(q) /. alphas.(q) in
         if theta <> 0. then begin
           let touched = t.touched in
           for p = 0 to touched.count - 1 do
             let j = Array.unsafe_get touched.idx p in
             if Array.unsafe_get t.in_basis j < 0 && j <> q then
               Array.unsafe_set t.dvals j
                 (Array.unsafe_get t.dvals j
                 -. (theta *. Array.unsafe_get alphas j))
           done
         end;
         clear_pivot_row t;
         let wr = w.(r) in
         let leaving = t.basis.(r) in
         let target =
           if sigma > 0. then t.hi.(leaving) else t.lo.(leaving)
         in
         let step = (t.xb.(r) -. target) /. wr in
         (* Update basic values. *)
         for p = 0 to w_nz.count - 1 do
           let i = Array.unsafe_get w_nz.idx p in
           t.xb.(i) <- t.xb.(i) -. (step *. w.(i))
         done;
         let entering_old = nonbasic_value t q in
         (* Absorb the basis change as a product-form eta. *)
         Sparse_lu.update_sparse t.lu ~r ~w w_nz;
         (* Swap basis membership. *)
         t.basis.(r) <- q;
         t.in_basis.(q) <- r;
         t.in_basis.(leaving) <- -1;
         t.at_upper.(leaving) <- sigma > 0.;
         t.xb.(r) <- entering_old +. step;
         t.dvals.(leaving) <- -.theta;
         t.dvals.(q) <- 0.;
         if t.pricing = Devex then begin
           (* Forrest-Goldfarb dual devex update: with gamma_r the old
              weight of the leaving row and w = Binv a_q the entering
              column, the new row-r weight is max(gamma_r / w_r^2, 1)
              and every other row takes max(gamma_i, (w_i/w_r)^2 *
              gamma_r).  When the reference framework has degraded
              (weights blown past 1e12) restart it from unit weights. *)
           let gr = t.dw.(r) /. (wr *. wr) in
           if gr > 1e12 then Array.fill t.dw 0 t.m 1.
           else begin
             for p = 0 to w_nz.count - 1 do
               let i = Array.unsafe_get w_nz.idx p in
               if i <> r then begin
                 let wi = Array.unsafe_get w i in
                 if wi <> 0. then begin
                   let cand = wi *. wi *. gr in
                   if cand > Array.unsafe_get t.dw i then
                     Array.unsafe_set t.dw i cand
                 end
               end
             done;
             t.dw.(r) <- Float.max gr 1.0
           end
         end;
         clear_col t
       end
     done;
     assert false
   with Done s ->
     (match s with
     | Optimal | Infeasible | Iteration_limit -> s))

let primal t =
  let x = Array.make t.n 0. in
  for j = 0 to t.n - 1 do
    let pos = t.in_basis.(j) in
    x.(j) <- (if pos >= 0 then t.xb.(pos) else nonbasic_value t j)
  done;
  x

let objective t =
  let x = primal t in
  let acc = ref 0. in
  for j = 0 to t.n - 1 do
    acc := !acc +. (t.cost.(j) *. x.(j))
  done;
  !acc

let iterations t = t.total_iters
let factorizations t = t.factorizations
let num_rows t = t.m
let num_cols t = t.n
