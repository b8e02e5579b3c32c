module Schema = Tb_store.Schema
module Value = Tb_store.Value

let provider_cls = "Provider"
let patient_cls = "Patient"
let providers_extent = "Providers"
let patients_extent = "Patients"

let schema =
  Schema.make
    ~classes:
      [
        {
          Schema.cls_name = provider_cls;
          attrs =
            [
              ("name", Schema.TString);
              ("upin", Schema.TInt);
              ("address", Schema.TString);
              ("specialty", Schema.TString);
              ("office", Schema.TString);
              ("clients", Schema.TSet (Schema.TRef patient_cls));
            ];
        };
        {
          Schema.cls_name = patient_cls;
          attrs =
            [
              ("name", Schema.TString);
              ("mrn", Schema.TInt);
              ("age", Schema.TInt);
              ("sex", Schema.TChar);
              ("random_integer", Schema.TInt);
              ("num", Schema.TInt);
              ("primary_care_provider", Schema.TRef provider_cls);
            ];
        };
      ]
    ~roots:
      [
        (providers_extent, Schema.TSet (Schema.TRef provider_cls));
        (patients_extent, Schema.TSet (Schema.TRef patient_cls));
      ]

(* [Printf.sprintf "%016d" n] by hand: a load formats four of these per
   provider and one per patient, and the format interpreter allocates
   several times what the 16 bytes need.  Ids are non-negative; anything
   else (or anything wider than 16 digits) takes the formatter itself. *)
let pad16 n =
  if n < 0 || n > 9_999_999_999_999_999 then Printf.sprintf "%016d" n
  else begin
    let b = Bytes.make 16 '0' in
    let rest = ref n and i = ref 15 in
    while !rest > 0 do
      Bytes.set b !i (Char.chr (48 + (!rest mod 10)));
      rest := !rest / 10;
      decr i
    done;
    Bytes.to_string b
  end

let provider_value ~upin ~clients =
  Value.Tuple
    [
      ("name", Value.String (pad16 upin));
      ("upin", Value.Int upin);
      ("address", Value.String (pad16 (upin * 7)));
      ("specialty", Value.String (pad16 (upin mod 40)));
      ("office", Value.String (pad16 (upin mod 100)));
      ("clients", clients);
    ]

let patient_value ~mrn ~age ~sex ~random_integer ~num ~pcp =
  Value.Tuple
    [
      ("name", Value.String (pad16 mrn));
      ("mrn", Value.Int mrn);
      ("age", Value.Int age);
      ("sex", Value.Char sex);
      ("random_integer", Value.Int random_integer);
      ("num", Value.Int num);
      ("primary_care_provider", pcp);
    ]
