(* Codec property tests: for every Value.t constructor — including the
   empty-string and nested-collection corners — encode/decode must
   round-trip, [skip] must land exactly where [decode] does, and both must
   behave identically when the encoding sits mid-buffer.  The packed
   execution path navigates records purely with [skip], so a single
   off-by-one here silently corrupts every offset program. *)

module Value = Tb_store.Value
module Codec = Tb_store.Codec
module Rid = Tb_storage.Rid

let rid_gen =
  QCheck.Gen.(
    map3
      (fun file page slot -> Rid.make ~file ~page ~slot)
      (int_range 0 7) (int_range 0 10_000) (int_range 0 200))

(* Sized generator covering every constructor; collections recurse with a
   shrinking budget so nesting terminates but still reaches depth 3+. *)
let value_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Value.Nil;
            map (fun i -> Value.Int i) (int_range (-0x4000_0000) 0x3FFF_FFFF);
            map (fun f -> Value.Real f) (float_range (-1e9) 1e9);
            map (fun b -> Value.Bool b) bool;
            map (fun c -> Value.Char (Char.chr c)) (int_range 0 255);
            (* Deliberately weight the empty string in. *)
            map
              (fun s -> Value.String s)
              (oneof [ return ""; string_size (int_range 0 40) ]);
            map (fun r -> Value.Ref r) rid_gen;
            map (fun r -> Value.Big_set r) rid_gen;
          ]
      in
      if n <= 0 then leaf
      else
        let sub = self (n / 4) in
        oneof
          [
            leaf;
            map (fun vs -> Value.Set vs) (list_size (int_range 0 5) sub);
            map (fun vs -> Value.List vs) (list_size (int_range 0 5) sub);
            map
              (fun vs ->
                Value.Tuple (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) vs))
              (list_size (int_range 0 5) sub);
          ])

let value_arb =
  QCheck.make value_gen ~print:(fun v -> Format.asprintf "%a" Value.pp v)

(* Embed the encoding mid-buffer between junk guard bytes, so decode/skip
   are exercised at a nonzero [pos] with trailing garbage — exactly how
   the packed path sees them inside a slotted page. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"codec: decode/skip round-trip every constructor"
    ~count:500 value_arb (fun v ->
      let enc = Codec.encode v in
      let size = Codec.encoded_size v in
      if Bytes.length enc <> size then
        QCheck.Test.fail_reportf "encoded_size %d but encode produced %d" size
          (Bytes.length enc);
      let pad = 5 in
      let buf = Bytes.make (pad + size + 7) '\xAA' in
      Bytes.blit enc 0 buf pad size;
      let v', after = Codec.decode buf ~pos:pad in
      if not (Value.equal v v') then
        QCheck.Test.fail_reportf "decode disagrees: %a vs %a" Value.pp v
          Value.pp v';
      if after <> pad + size then
        QCheck.Test.fail_reportf "decode stopped at %d, expected %d" after
          (pad + size);
      let skipped = Codec.skip buf ~pos:pad in
      if skipped <> after then
        QCheck.Test.fail_reportf "skip landed at %d, decode at %d" skipped
          after;
      true)

(* The corners the generator might under-sample, pinned explicitly. *)
let explicit_corners () =
  let check v =
    let enc = Codec.encode v in
    let v', after = Codec.decode enc ~pos:0 in
    Alcotest.(check bool)
      (Format.asprintf "round-trip %a" Value.pp v)
      true
      (Value.equal v v' && after = Bytes.length enc
      && Codec.skip enc ~pos:0 = after)
  in
  List.iter check
    [
      Value.Nil;
      Value.String "";
      Value.Char '\000';
      Value.Int (-0x4000_0000);
      Value.Set [];
      Value.List [];
      Value.Tuple [];
      Value.List [ Value.List [ Value.List [ Value.String "" ] ] ];
      Value.Tuple
        [
          ("empty", Value.String "");
          ("nested", Value.Set [ Value.Nil; Value.List [ Value.Int 0 ] ]);
        ];
    ]

let suite =
  [
    Prop.to_alcotest prop_roundtrip;
    Alcotest.test_case "codec: explicit corner values" `Quick explicit_corners;
  ]
