(* Workload tests: reference implementations sanity checks, front-end
   level equivalence for all three paper benchmarks, and (slow) full
   ILP-compiled equivalence for Kasumi. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- AES reference sanity ---------------- *)

let test_aes_sbox_known_values () =
  let s = Lazy.force Workloads.Aes_ref.sbox in
  (* canonical FIPS-197 values *)
  checki "S[0x00]" 0x63 s.(0x00);
  checki "S[0x01]" 0x7C s.(0x01);
  checki "S[0x53]" 0xED s.(0x53);
  checki "S[0xFF]" 0x16 s.(0xFF)

let test_aes_fips_vector () =
  (* FIPS-197 appendix B: key 2B7E151628AED2A6ABF7158809CF4F3C,
     plaintext 3243F6A8885A308D313198A2E0370734,
     ciphertext 3925841D02DC09FBDC118597196A0B32 *)
  let key = [| 0x2B7E1516; 0x28AED2A6; 0xABF71588; 0x09CF4F3C |] in
  let pt = [| 0x3243F6A8; 0x885A308D; 0x313198A2; 0xE0370734 |] in
  let rks = Workloads.Aes_ref.expand_key key in
  let ct = Workloads.Aes_ref.encrypt_block rks pt in
  checki "ct0" 0x3925841D ct.(0);
  checki "ct1" 0x02DC09FB ct.(1);
  checki "ct2" 0xDC118597 ct.(2);
  checki "ct3" 0x196A0B32 ct.(3)

let test_aes_key_expansion () =
  let key = [| 0x2B7E1516; 0x28AED2A6; 0xABF71588; 0x09CF4F3C |] in
  let w = Workloads.Aes_ref.expand_key key in
  checki "44 words" 44 (Array.length w);
  (* FIPS-197 appendix A: w[4] = A0FAFE17, w[43] = B6630CA6 *)
  checki "w4" 0xA0FAFE17 w.(4);
  checki "w43" 0xB6630CA6 w.(43)

let test_ones_complement () =
  checki "simple" 3
    (Workloads.Aes_ref.ones_complement_sum [| 0x00010002 |]);
  checki "folding" 1
    (Workloads.Aes_ref.ones_complement_sum [| 0xFFFF0001 |])

(* ---------------- Kasumi reference sanity ---------------- *)

let test_kasumi_structure () =
  let rks = Workloads.Kasumi_ref.schedule Workloads.Kasumi.demo_key in
  checki "8 rounds" 8 (Array.length rks);
  (* deterministic: same input -> same output; different keys differ *)
  let c1 = Workloads.Kasumi_ref.encrypt_block rks (0x01234567, 0x89ABCDEF) in
  let c2 = Workloads.Kasumi_ref.encrypt_block rks (0x01234567, 0x89ABCDEF) in
  checkb "deterministic" true (c1 = c2);
  let rks2 =
    Workloads.Kasumi_ref.schedule
      [| 0x1111; 0x2222; 0x3333; 0x4444; 0x5555; 0x6666; 0x7777; 0x8888 |]
  in
  let c3 = Workloads.Kasumi_ref.encrypt_block rks2 (0x01234567, 0x89ABCDEF) in
  checkb "key-dependent" true (c1 <> c3);
  (* diffusion: flipping one plaintext bit changes both output words *)
  let d1, d2 = Workloads.Kasumi_ref.encrypt_block rks (0x01234567, 0x89ABCDEE) in
  let e1, e2 = c1 in
  checkb "diffusion" true (d1 <> e1 && d2 <> e2)

let test_kasumi_packed_subkeys () =
  let rks = Workloads.Kasumi_ref.schedule Workloads.Kasumi.demo_key in
  let packed = Workloads.Kasumi_ref.packed_subkeys rks in
  checki "32 words" 32 (Array.length packed);
  checki "round0 word0" ((rks.(0).Workloads.Kasumi_ref.kl1 lsl 16)
                         lor rks.(0).Workloads.Kasumi_ref.kl2)
    packed.(0)

(* ---------------- front-end equivalence (fast) ---------------- *)

let run_front name source ~init =
  let front = Regalloc.Driver.front_end ~file:(name ^ ".nova") source in
  let st = Cps.Interp.create () in
  init st;
  let result =
    Cps.Interp.run st Support.Ident.Map.empty front.Regalloc.Driver.f_term
  in
  (result, st)

let test_aes_front_end_matches_reference () =
  let plen = 32 in
  let result, st =
    run_front "aes" Workloads.Aes.source ~init:(fun st ->
        let mem = Cps.Interp.memory st in
        Workloads.Aes.init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        ignore
          (Workloads.Aes.init_payload
             (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sdram w v)
             ~payload_len:plen))
  in
  let ct, csum = Workloads.Aes.expected ~payload_len:plen in
  let mem = Cps.Interp.memory st in
  Array.iteri
    (fun i w ->
      checki
        (Printf.sprintf "ct[%d]" i)
        w
        (Ixp.Memory.peek mem Ixp.Insn.Sdram ((Workloads.Aes.ct_base / 4) + i)))
    ct;
  checkb "csum" true (result = [ csum ])

let test_kasumi_front_end_matches_reference () =
  let plen = 32 in
  let result, st =
    run_front "kasumi" Workloads.Kasumi.source ~init:(fun st ->
        let mem = Cps.Interp.memory st in
        Workloads.Kasumi.init_tables
          ~load_sram:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v)
          ~load_scratch:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Scratch w v);
        ignore
          (Workloads.Kasumi.init_payload
             (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sdram w v)
             ~payload_len:plen))
  in
  let ct, csum = Workloads.Kasumi.expected ~payload_len:plen in
  let mem = Cps.Interp.memory st in
  Array.iteri
    (fun i w ->
      checki
        (Printf.sprintf "ct[%d]" i)
        w
        (Ixp.Memory.peek mem Ixp.Insn.Sdram ((Workloads.Kasumi.pkt_base / 4) + i)))
    ct;
  checkb "csum" true (result = [ csum ])

let test_nat_front_end_matches_reference () =
  let plen = 64 in
  let result, st =
    run_front "nat" Workloads.Nat.source ~init:(fun st ->
        let mem = Cps.Interp.memory st in
        Workloads.Nat.init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        ignore
          (Workloads.Nat.init_payload
             (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sdram w v)
             ~payload_len:plen))
  in
  let image, ret =
    Workloads.Nat.expected ~payload_len:plen
      ~sdram_words:Ixp.Memory.default_config.Ixp.Memory.sdram_words
  in
  let mem = Cps.Interp.memory st in
  for i = 0 to (Workloads.Nat.in_base + 40 + plen) / 4 do
    checki
      (Printf.sprintf "sdram[%d]" i)
      image.(i)
      (Ixp.Memory.peek mem Ixp.Insn.Sdram i)
  done;
  checkb "ret" true (result = [ ret ])

let test_nat_punts_bad_version () =
  (* corrupt the version field: the program must take the exception path *)
  let plen = 64 in
  let result, _ =
    run_front "nat" Workloads.Nat.source ~init:(fun st ->
        let mem = Cps.Interp.memory st in
        Workloads.Nat.init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        ignore
          (Workloads.Nat.init_payload
             (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sdram w v)
             ~payload_len:plen);
        (* version := 4 *)
        let w0 = Ixp.Memory.peek mem Ixp.Insn.Sdram (Workloads.Nat.in_base / 4) in
        Ixp.Memory.poke mem Ixp.Insn.Sdram (Workloads.Nat.in_base / 4)
          ((w0 land 0x0FFFFFFF) lor (4 lsl 28)))
  in
  checkb "punted" true (result = [ 0xF0000001 ])

(* ---------------- full ILP-compiled equivalence (slow) ---------------- *)

let test_kasumi_compiled_end_to_end () =
  let plen = 16 in
  let c =
    Regalloc.Driver.compile ~file:"kasumi.nova" Workloads.Kasumi.source
  in
  let sim = Ixp.Simulator.create c.Regalloc.Driver.physical in
  let mem = Ixp.Simulator.shared_memory sim in
  Workloads.Kasumi.init_tables
    ~load_sram:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v)
    ~load_scratch:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Scratch w v);
  let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
  ignore
    (Workloads.Kasumi.init_payload
       (fun w v -> Ixp.Memory.poke sdram Ixp.Insn.Sdram w v)
       ~payload_len:plen);
  let cycles = Ixp.Simulator.run_single sim in
  checkb "ran" true (cycles > 0);
  let ct, _ = Workloads.Kasumi.expected ~payload_len:plen in
  Array.iteri
    (fun i w ->
      checki
        (Printf.sprintf "compiled ct[%d]" i)
        w
        (Ixp.Memory.peek sdram Ixp.Insn.Sdram ((Workloads.Kasumi.pkt_base / 4) + i)))
    ct

(* ---------------- solver search path and retention ---------------- *)

(* Cold compile with default options from a fresh identifier supply, as
   a compiler process runs it: the search path depends on the stamps. *)
let cold_compile name source =
  Support.Ident.reset ();
  Regalloc.Driver.compile ~options:Regalloc.Driver.default_options
    ~file:(name ^ ".nova") source

(* The B&B node and simplex iteration counts of a cold compile are a
   deterministic function of the pivot order; a change in LU pivot
   selection, in the order of a simplex kernel's arithmetic or a second
   solve of the root shows up here.  AES is the workload that branches,
   so its search path drifts first. *)
let check_search_path name source ?(nodes = 1) ~iterations () =
  let c = cold_compile name source in
  match c.Regalloc.Driver.stats.Regalloc.Driver.mip with
  | None -> Alcotest.fail "no MIP statistics"
  | Some m ->
      checki "nodes" nodes m.Lp.Mip.nodes;
      checki "simplex iterations" iterations m.Lp.Mip.simplex_iterations

(* A compiled program keeps its assignment's tables, not the ILP
   instance, problem and MIP result it was read from. *)
let test_compiled_retention () =
  let c = cold_compile "kasumi" Workloads.Kasumi.source in
  let bytes = Obj.reachable_words (Obj.repr c) * (Sys.word_size / 8) in
  if bytes >= 4_000_000 then
    Alcotest.failf "compiled Kasumi retains %d bytes" bytes

let suites =
  [
    ( "workloads.aes_ref",
      [
        Alcotest.test_case "sbox known values" `Quick test_aes_sbox_known_values;
        Alcotest.test_case "FIPS-197 vector" `Quick test_aes_fips_vector;
        Alcotest.test_case "key expansion" `Quick test_aes_key_expansion;
        Alcotest.test_case "ones complement" `Quick test_ones_complement;
      ] );
    ( "workloads.kasumi_ref",
      [
        Alcotest.test_case "structure" `Quick test_kasumi_structure;
        Alcotest.test_case "packed subkeys" `Quick test_kasumi_packed_subkeys;
      ] );
    ( "workloads.front_end",
      [
        Alcotest.test_case "AES matches reference" `Quick
          test_aes_front_end_matches_reference;
        Alcotest.test_case "Kasumi matches reference" `Quick
          test_kasumi_front_end_matches_reference;
        Alcotest.test_case "NAT matches reference" `Quick
          test_nat_front_end_matches_reference;
        Alcotest.test_case "NAT punts bad version" `Quick
          test_nat_punts_bad_version;
      ] );
    ( "workloads.compiled",
      [
        Alcotest.test_case "Kasumi ILP-compiled end-to-end" `Slow
          test_kasumi_compiled_end_to_end;
      ] );
    ( "workloads.solver",
      [
        Alcotest.test_case "Kasumi search path" `Quick
          (check_search_path "kasumi" Workloads.Kasumi.source ~iterations:534);
        Alcotest.test_case "QoS search path" `Quick
          (check_search_path "qos" Workloads.Qos.source ~iterations:1611);
        Alcotest.test_case "AES search path" `Quick
          (check_search_path "aes" Workloads.Aes.source ~nodes:359
             ~iterations:6659);
        Alcotest.test_case "compiled Kasumi retention" `Quick
          test_compiled_retention;
      ] );
  ]
