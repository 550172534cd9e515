(* The Nova programs the benchmark compiles, edits and forwards, with
   everything it needs to drive them from outside the compiler: table
   loaders, packet writers, the OCaml reference each output is checked
   against, the chip loads, and hand-written edits that change the ILP
   model without changing the checked outputs. *)

let sdram_words = Ixp.Memory.default_config.Ixp.Memory.sdram_words

type program = {
  name : string;
  source : string;
  align : int; (* payload sizes are multiples of this *)
  load_tables : Ixp.Memory.t -> unit;
  write_packet : (int -> int -> unit) -> payload_len:int -> unit;
  reference : payload_len:int -> expected;
      (* the OCaml reference's output for one packet *)
  saturating_mpps : float; (* about twice the chip's capacity *)
  half_mpps : float; (* about half of the capacity at the seed commit *)
  packets : int; (* packets per chip run, sized so each program costs
                    the host a similar share of a sweep *)
  model_edits : (string * string) list;
      (* (anchor, line): insert [line] after the line containing
         [anchor]; each adds a debug store, a new instruction for the
         allocator to place *)
}

(* What one packet must leave behind: SDRAM words (index, value), the
   return value, and whether every other SDRAM word must be zero. *)
and expected = { words : (int * int) array; ret : int; whole : bool }

let poke mem space w v = Ixp.Memory.poke mem space w v

let sram mem = poke mem Ixp.Insn.Sram

(* crypto kernels: ciphertext in SDRAM, checksum as the return value *)
let cipher_reference expected ~ct_base ~payload_len =
  let ct, csum = expected ~payload_len in
  { words = Array.mapi (fun i w -> ((ct_base / 4) + i, w)) ct; ret = csum; whole = false }

(* dataplane kernels: the whole SDRAM image and the return value *)
let image_reference expected ~payload_len =
  let image, ret = expected ~payload_len ~sdram_words in
  let words = ref [] in
  Array.iteri (fun i w -> if w <> 0 then words := (i, w) :: !words) image;
  { words = Array.of_list (List.rev !words); ret; whole = true }

let matches e sdram ret =
  let peek i = Ixp.Memory.peek sdram Ixp.Insn.Sdram i in
  ret = e.ret
  && Array.for_all (fun (i, w) -> peek i = w) e.words
  && ((not e.whole)
     ||
     let nonzero = ref 0 in
     for i = 0 to sdram_words - 1 do
       if peek i <> 0 then incr nonzero
     done;
     !nonzero = Array.length e.words)

(* Debug stores land in scratch words no program reads or checks. *)
let dbg = "scratch(0xC00) <- "
let dbg2 = "scratch(0xC04) <- "

let kasumi =
  {
    name = "Kasumi";
    source = Workloads.Kasumi.source;
    align = 8;
    load_tables =
      (fun mem ->
        Workloads.Kasumi.init_tables ~load_sram:(sram mem)
          ~load_scratch:(poke mem Ixp.Insn.Scratch));
    write_packet =
      (fun load ~payload_len ->
        ignore (Workloads.Kasumi.init_payload load ~payload_len));
    reference =
      cipher_reference Workloads.Kasumi.expected
        ~ct_base:Workloads.Kasumi.pkt_base;
    saturating_mpps = 0.02;
    half_mpps = 0.005;
    packets = 300;
    model_edits =
      [
        ("let payload_len = ip.total_length - 40;", dbg ^ "payload_len;");
        ("let (hi, lo) = sdram(PKT + off);", dbg ^ "hi ^ lo;");
        ("let l2 = r1 ^ outB;", dbg ^ "l2;");
        ("sdram(PKT + off) <- (l, r);", dbg2 ^ "off;");
        ("sram(CSUM) <- csum;", dbg ^ "csum;");
        ("let outA = fo(fl(l, a0), a1, a2, a3);", dbg ^ "outA;");
      ];
  }

let aes =
  {
    name = "AES";
    source = Workloads.Aes.source;
    align = 16;
    load_tables = (fun mem -> Workloads.Aes.init_tables (sram mem));
    write_packet =
      (fun load ~payload_len ->
        ignore (Workloads.Aes.init_payload load ~payload_len));
    reference =
      cipher_reference Workloads.Aes.expected ~ct_base:Workloads.Aes.ct_base;
    saturating_mpps = 0.018;
    half_mpps = 0.0045;
    packets = 300;
    model_edits = [];
  }

let dataplane name source ~align ~init_tables ~init_payload ~expected
    ~saturating_mpps ~half_mpps ~packets ~model_edits =
  {
    name;
    source;
    align;
    load_tables = (fun mem -> init_tables (sram mem));
    write_packet = (fun load ~payload_len -> ignore (init_payload load ~payload_len));
    reference = image_reference expected;
    saturating_mpps;
    half_mpps;
    packets;
    model_edits;
  }

let qos =
  dataplane "QoS" Workloads.Qos.source ~align:4
    ~init_tables:Workloads.Qos.init_tables
    ~init_payload:Workloads.Qos.init_payload ~expected:Workloads.Qos.expected
    ~saturating_mpps:14. ~half_mpps:3.6 ~packets:6000
    ~model_edits:
      [
        ("let flow = hash(ip.src ^ ip.dst ^ ip.protocol) & 0x3F;", dbg ^ "flow;");
        ("let st0 = sram(fa + 4, 1);", dbg ^ "tok0 + st0;");
        ("let tokn = if (ok) { t2 - len } else { t2 };", dbg ^ "tokn;");
        ("let mark = if (ok) { 1 } else { 0 };", dbg ^ "mark;");
        ("let ck = (~(fold16(s))) & 0xFFFF;", dbg ^ "ck;");
        ("sram(fa + 4) <- stn;", dbg2 ^ "len;");
      ]

let lpm =
  dataplane "LPM" Workloads.Lpm.source ~align:4
    ~init_tables:Workloads.Lpm.init_tables
    ~init_payload:Workloads.Lpm.init_payload ~expected:Workloads.Lpm.expected
    ~saturating_mpps:14. ~half_mpps:3.6 ~packets:6000
    ~model_edits:
      [
        ("let d = ip.dst;", dbg ^ "d;");
        ("let idx = (d >> shift) & 0xFF;", dbg ^ "idx;");
        ("let e = sram(TRIE + node + (idx << 2), 1);", dbg ^ "e;");
        ("let w2 = h2 - 0x01000000;", dbg ^ "w2;");
        ("let w2p = (w2 & 0xFFFF0000) | ck;", dbg ^ "w2p;");
        ("sram(NH) <- result;", dbg2 ^ "result;");
      ]

let firewall =
  dataplane "Firewall" Workloads.Firewall.source ~align:4
    ~init_tables:Workloads.Firewall.init_tables
    ~init_payload:Workloads.Firewall.init_payload
    ~expected:Workloads.Firewall.expected ~saturating_mpps:22. ~half_mpps:5.6
    ~packets:6000
    ~model_edits:
      [
        ("let proto = ip.protocol;", dbg ^ "proto;");
        ("let dport = p0 & 0xFFFF;", dbg ^ "dport;");
        ("let base = RULES + (i << 5);", dbg ^ "base;");
        ("let (r4, r5, r6, r7) = sram(base + 16, 4);", dbg ^ "r7;");
        ("let hit = if (verdict == 0) { NRULES } else { i };", dbg ^ "hit;");
        ("sram(VERDICT) <- v;", dbg2 ^ "v;");
      ]

let csum =
  dataplane "Csum" Workloads.Csum.source ~align:8
    ~init_tables:Workloads.Csum.init_tables
    ~init_payload:Workloads.Csum.init_payload ~expected:Workloads.Csum.expected
    ~saturating_mpps:0.86 ~half_mpps:0.215 ~packets:3000
    ~model_edits:
      [
        ("let paylen = ip.total_length - 28;", dbg ^ "paylen;");
        ("let ipck = (~(fold16(s))) & 0xFFFF;", dbg ^ "ipck;");
        ("let (a, b) = sdram(IN + 24 + off);", dbg ^ "a;");
        ("let f = fold16(fold16(sum));", dbg ^ "f;");
        ("let udpck = if (u == 0) { 0xFFFF } else { u };", dbg ^ "udpck;");
        ("sram(CSUMOUT) <- (ipck << 16) | udpck;", dbg2 ^ "sum;");
      ]

(* ---------------- source edits ---------------- *)

let lines source = Array.of_list (String.split_on_char '\n' source)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Insert [line] after the single source line containing [anchor]. *)
let apply_model_edit source (anchor, line) =
  let ls = lines source in
  let hits =
    List.filter (fun i -> find_sub ls.(i) anchor <> None)
      (List.init (Array.length ls) Fun.id)
  in
  match hits with
  | [ i ] ->
      String.concat "\n"
        (Array.to_list (Array.sub ls 0 (i + 1))
        @ [ "    " ^ line ]
        @ Array.to_list (Array.sub ls (i + 1) (Array.length ls - i - 1)))
  | _ -> invalid_arg (Printf.sprintf "model edit anchor %S matches %d lines" anchor (List.length hits))

(* A one-line edit that touches only a comment: rewrite line [i]'s
   trailing comment, or give it one. *)
let apply_comment_edit source ~line ~token =
  let ls = lines source in
  let i = line mod Array.length ls in
  let l = ls.(i) in
  let code = match find_sub l "//" with Some k -> String.sub l 0 k | None -> l in
  ls.(i) <- Printf.sprintf "%s // edit %d" code token;
  String.concat "\n" (Array.to_list ls)

let line_count source = Array.length (lines source)
