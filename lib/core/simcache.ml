let set_dir (_ : string option) = ()
