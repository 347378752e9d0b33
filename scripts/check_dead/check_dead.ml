(* Fail when a library declaration has no user outside the tests.

   Reads the typed trees that `dune build @check` writes and requires,
   of the sources under lib/:
   - every [val] of an .mli (nested module signatures included) is
     referenced from another compilation unit;
   - every record field is read: a field access, a record pattern that
     binds it, or a [{ r with ... }] that copies it;
   - every variant constructor is built.
   A unit whose source is under test/ is no user: a declaration only
   tests reach is listed apart as test-only, and that list must equal
   the golden file given with [--test-only FILE] (no file: an empty
   list; in the file, blank lines and lines starting with # are
   ignored).  Library code, bench, examples, bin and perfbench count.
   A value is keyed by its .mli declaration location, where references
   from other units point and those from its own .ml never do.  A field
   or constructor is keyed by declaring file stem, type name and own
   name, so the .ml and .mli copies of a type share a key and no alias
   or open hides a use.  Structural equality and hashing read every
   field but do not count as reads.

   Prints each dead declaration as [file:line: kind name], then a count;
   then each difference from the golden as [+ file: kind name] (test-only
   but not in the golden) or [- file: kind name] (in the golden but no
   longer test-only), then a count.  Exits 1 if either count is nonzero.
   From the repo root:
     dune build @check
     dune exec scripts/check_dead/check_dead.exe -- \
       --test-only scripts/check_dead/test_only.expected \
       $(find _build/default \( -name '*.cmt' -o -name '*.cmti' \)) *)

open Typedtree

let file (loc : Location.t) = loc.loc_start.pos_fname
let under dir f = String.starts_with ~prefix:(dir ^ "/") f

(* Declarations by key, with where and what to report; the keys that
   have a user, and those that only tests use. *)
let declared : (string, Location.t * string) Hashtbl.t = Hashtbl.create 1024
let used : (string, unit) Hashtbl.t = Hashtbl.create 8192
let test_used : (string, unit) Hashtbl.t = Hashtbl.create 1024

(* Whether the unit being read is a test. *)
let in_test = ref false
let use key = Hashtbl.replace (if !in_test then test_used else used) key ()

let declare key loc what =
  (* Report a type's .mli copy when it has one. *)
  match Hashtbl.find_opt declared key with
  | Some (l, _) when Filename.check_suffix (file l) ".mli" -> ()
  | _ -> Hashtbl.replace declared key (loc, what)

let value_key loc = Printf.sprintf "%s:%d" (file loc) loc.loc_start.pos_cnum

let member_key loc ty name =
  Printf.sprintf "%s %s.%s" (Filename.remove_extension (file loc)) ty name

(* An inline record is named after its type and constructor. *)
let rec type_name = function
  | Path.Pextra_ty (p, Pcstr_ty c) -> type_name p ^ "." ^ c
  | p -> Path.last p

let use_member loc res name =
  match Types.get_desc res with
  | Tconstr (p, _, _) -> use (member_key loc (type_name p) name)
  | _ -> ()

let use_label (l : Types.label_description) =
  use_member l.lbl_loc l.lbl_res l.lbl_name

let declare_labels loc ty =
  List.iter (fun ld ->
      let l = ld.ld_name.txt in
      declare (member_key loc ty l) ld.ld_loc ("field " ^ ty ^ "." ^ l))

let declare_constructor loc ty cd =
  let c = cd.cd_name.txt in
  declare (member_key loc ty c) cd.cd_loc ("constructor " ^ ty ^ "." ^ c);
  match cd.cd_args with
  | Cstr_record lds -> declare_labels loc (ty ^ "." ^ c) lds
  | Cstr_tuple _ -> ()

let type_declaration sub td =
  let loc = td.typ_loc and ty = td.typ_name.txt in
  (if under "lib" (file loc) then
     match td.typ_kind with
     | Ttype_record lds -> declare_labels loc ty lds
     | Ttype_variant cds -> List.iter (declare_constructor loc ty) cds
     | Ttype_abstract | Ttype_open -> ());
  Tast_iterator.default_iterator.type_declaration sub td

let expr sub e =
  (match e.exp_desc with
  | Texp_ident (_, _, vd) -> use (value_key vd.val_loc)
  | Texp_field (_, _, l) -> use_label l
  | Texp_record { fields; extended_expression = Some _; _ } ->
      Array.iter (function l, Kept _ -> use_label l | _ -> ()) fields
  | Texp_construct (_, c, _) -> use_member c.cstr_loc c.cstr_res c.cstr_name
  | _ -> ());
  Tast_iterator.default_iterator.expr sub e

let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
 fun sub p ->
  (match p.pat_desc with
  | Tpat_record (fields, _) ->
      List.iter
        (fun (_, l, q) ->
          match q.pat_desc with Tpat_any -> () | _ -> use_label l)
        fields
  | _ -> ());
  Tast_iterator.default_iterator.pat sub p

let iterator =
  { Tast_iterator.default_iterator with type_declaration; expr; pat }

(* The vals of an .mli, nested module signatures included. *)
let rec declare_values prefix items =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          declare (value_key vd.val_loc) vd.val_loc
            ("val " ^ prefix ^ vd.val_name.txt)
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature s -> declare_values (prefix ^ m ^ ".") s.sig_items
          | _ -> ())
      | _ -> ())
    items

let read path =
  let cmt = Cmt_format.read_cmt path in
  let source = Option.value cmt.cmt_sourcefile ~default:"" in
  in_test := under "test" source;
  match cmt.cmt_annots with
  | Implementation s -> iterator.structure iterator s
  | Interface s ->
      iterator.signature iterator s;
      if under "lib" source then declare_values "" s.sig_items
  | _ -> ()

(* The golden's entries: its lines but blank ones and # comments. *)
let read_golden path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let () =
  let golden, paths =
    match List.tl (Array.to_list Sys.argv) with
    | "--test-only" :: g :: rest -> (read_golden g, rest)
    | rest -> ([], rest)
  in
  List.iter read paths;
  let unused pred =
    Hashtbl.fold
      (fun key (loc, what) acc ->
        if Hashtbl.mem used key || not (pred key) then acc
        else (file loc, loc.Location.loc_start.pos_lnum, what) :: acc)
      declared []
    |> List.sort compare
  in
  let dead = unused (fun key -> not (Hashtbl.mem test_used key)) in
  List.iter (fun (f, n, what) -> Printf.printf "%s:%d: %s\n" f n what) dead;
  Printf.printf "%d dead declaration(s)\n" (List.length dead);
  let test_only =
    unused (Hashtbl.mem test_used)
    |> List.map (fun (f, _, what) -> Printf.sprintf "%s: %s" f what)
  in
  let missing l = List.filter (fun x -> not (List.mem x l)) in
  let diff =
    List.map (( ^ ) "+ ") (missing golden test_only)
    @ List.map (( ^ ) "- ") (missing test_only golden)
  in
  List.iter print_endline diff;
  Printf.printf "%d test-only declaration(s), %d differ from the golden\n"
    (List.length test_only) (List.length diff);
  exit (if dead = [] && diff = [] then 0 else 1)
