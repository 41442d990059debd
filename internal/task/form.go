package task

import (
	"fmt"
	"strconv"
	"strings"
)

// FieldKind is the input control type of a form field.
type FieldKind string

// Supported field kinds for the form-based task UI.
const (
	FieldText     FieldKind = "text"     // single-line text
	FieldTextArea FieldKind = "textarea" // multi-line text
	FieldNumber   FieldKind = "number"
	FieldSelect   FieldKind = "select" // one of Options
	FieldCheckbox FieldKind = "checkbox"
	FieldURL      FieldKind = "url"
)

// Field is one input of a task form.
type Field struct {
	Name     string
	Label    string
	Kind     FieldKind
	Required bool
	// Options constrains FieldSelect values.
	Options []string
	// Help is shown next to the field.
	Help string
}

// Form is the declarative description of the task UI presented to workers.
// Crowd4U "provides an easy-to-use form-based task UI"; requesters define
// forms (optionally via spreadsheets) and the platform renders and validates
// them.
type Form struct {
	Fields []Field
}

// Clone returns a deep copy of the form.
func (f Form) Clone() Form {
	c := Form{Fields: make([]Field, len(f.Fields))}
	for i, fl := range f.Fields {
		fl.Options = append([]string(nil), fl.Options...)
		c.Fields[i] = fl
	}
	return c
}

// Field returns the named field.
func (f Form) Field(name string) (Field, bool) {
	for _, fl := range f.Fields {
		if fl.Name == name {
			return fl, true
		}
	}
	return Field{}, false
}

// Validate checks a submitted answer against the form: required fields must be
// present and non-empty, numbers must parse, selects must be one of the
// options, checkboxes must be boolean, and unknown fields are rejected.
func (f Form) Validate(answer map[string]string) error {
	var errs []string
	known := make(map[string]bool, len(f.Fields))
	for _, fl := range f.Fields {
		known[fl.Name] = true
		v, present := answer[fl.Name]
		if fl.Required && (!present || strings.TrimSpace(v) == "") {
			errs = append(errs, fmt.Sprintf("field %q is required", fl.Name))
			continue
		}
		if !present || v == "" {
			continue
		}
		switch fl.Kind {
		case FieldNumber:
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				errs = append(errs, fmt.Sprintf("field %q must be a number, got %q", fl.Name, v))
			}
		case FieldSelect:
			found := false
			for _, o := range fl.Options {
				if o == v {
					found = true
					break
				}
			}
			if !found {
				errs = append(errs, fmt.Sprintf("field %q must be one of %v, got %q", fl.Name, fl.Options, v))
			}
		case FieldCheckbox:
			if _, err := strconv.ParseBool(v); err != nil {
				errs = append(errs, fmt.Sprintf("field %q must be a boolean, got %q", fl.Name, v))
			}
		case FieldURL:
			if !strings.HasPrefix(v, "http://") && !strings.HasPrefix(v, "https://") {
				errs = append(errs, fmt.Sprintf("field %q must be an http(s) URL, got %q", fl.Name, v))
			}
		}
	}
	for name := range answer {
		if !known[name] {
			errs = append(errs, fmt.Sprintf("unknown field %q", name))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("task: invalid answer: %s", strings.Join(errs, "; "))
	}
	return nil
}

// ConfirmForm builds a yes/no verification form, used by check/verify steps
// and by the testimonial-confirmation tasks of the surveillance scenario.
func ConfirmForm(question string) Form {
	return Form{Fields: []Field{
		{Name: "confirmed", Label: question, Kind: FieldSelect, Required: true, Options: []string{"yes", "no"}},
		{Name: "comment", Label: "Comment", Kind: FieldTextArea},
	}}
}
