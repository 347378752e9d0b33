(* Fail when a library declaration has no user.

   Reads the typed trees that `dune build @check` writes and requires,
   of the sources under lib/:
   - every [val] of an .mli (nested module signatures included) is
     referenced from another compilation unit;
   - every record field is read: a field access, a record pattern that
     binds it, or a [{ r with ... }] that copies it;
   - every variant constructor is built.
   Every unit passed counts as a user, tests and executables included.
   A value is keyed by its .mli declaration location, where references
   from other units point and those from its own .ml never do.  A field
   or constructor is keyed by declaring file stem, type name and own
   name, so the .ml and .mli copies of a type share a key and no alias
   or open hides a use.  Structural equality and hashing read every
   field but do not count as reads.

   Prints each dead declaration as [file:line: kind name], then a count,
   and exits 1 if there are any.  From the repo root:
     dune build @check
     dune exec scripts/check_dead/check_dead.exe -- \
       $(find _build/default \( -name '*.cmt' -o -name '*.cmti' \)) *)

open Typedtree

let file (loc : Location.t) = loc.loc_start.pos_fname
let under_lib f = String.starts_with ~prefix:"lib/" f

(* Declarations by key, with where and what to report, and the keys
   that have a user. *)
let declared : (string, Location.t * string) Hashtbl.t = Hashtbl.create 1024
let used : (string, unit) Hashtbl.t = Hashtbl.create 8192
let use key = Hashtbl.replace used key ()

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
  (if under_lib (file loc) then
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
  match cmt.cmt_annots with
  | Implementation s -> iterator.structure iterator s
  | Interface s ->
      iterator.signature iterator s;
      if under_lib (Option.value cmt.cmt_sourcefile ~default:"") then
        declare_values "" s.sig_items
  | _ -> ()

let () =
  Array.iteri (fun i path -> if i > 0 then read path) Sys.argv;
  let dead =
    Hashtbl.fold
      (fun key (loc, what) acc ->
        if Hashtbl.mem used key then acc
        else (file loc, loc.Location.loc_start.pos_lnum, what) :: acc)
      declared []
    |> List.sort compare
  in
  List.iter (fun (f, n, what) -> Printf.printf "%s:%d: %s\n" f n what) dead;
  Printf.printf "%d dead declaration(s)\n" (List.length dead);
  exit (if dead = [] then 0 else 1)
